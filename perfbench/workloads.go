package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"

	"limitsim/internal/chaos"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/report"
	"limitsim/internal/runner"
	"limitsim/internal/workloads"
)

// workload is one built benchmark input set.
type workload interface {
	// iterate runs one iteration's public calls, recording a span per
	// call on tr (nil when untraced). An error is a failed operation.
	iterate(tr *tracer) error
	// check validates the outputs of the iteration just run. The first
	// call records them as the reference later iterations must match.
	check() error
	// counts returns the last iteration's exact per-layer counts, keyed
	// by per-layer metric name.
	counts() map[string]float64
}

// spec names a workload and builds it from a seed; the build is what
// setup_s times.
type spec struct {
	name  string
	setup func(seed uint64) (workload, error)
}

var specs = []spec{
	{"oltp-mysql", func(seed uint64) (workload, error) {
		return newSimApp(workloads.BuildMySQL(workloads.DefaultMySQL(), workloads.LimitInstr()), machine.Config{NumCores: 4}, seed), nil
	}},
	{"syscall-apache", func(seed uint64) (workload, error) {
		return newSimApp(workloads.BuildApache(workloads.DefaultApache(), workloads.LimitInstr()), machine.Config{NumCores: 4}, seed), nil
	}},
	{"chaos-campaign", newCampaign},
	{"mux-report", newMuxReport},
}

func lookup(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// simApp is one application run per iteration, the way the runner's
// worker pools drive campaigns: restore the memory image, build a
// fresh machine, launch, run to completion.
type simApp struct {
	app  *workloads.App
	snap *mem.Snapshot
	mcfg machine.Config

	m      *machine.Machine
	res    machine.RunResult
	ref    uint64 // digest of the first iteration
	hasRef bool
}

// newSimApp mixes seed into every thread's seed (0 keeps the seeds the
// Build* function chose, the ones the goldens and CI use) and
// snapshots the image.
func newSimApp(app *workloads.App, mcfg machine.Config, seed uint64) *simApp {
	if seed != 0 {
		for i := range app.Plans {
			app.Plans[i].Seed = splitmix64(app.Plans[i].Seed ^ splitmix64(seed))
		}
	}
	return &simApp{app: app, snap: app.Space.Snapshot(), mcfg: mcfg}
}

func (s *simApp) iterate(tr *tracer) error {
	i := tr.begin("mem.Restore")
	s.app.Space.Restore(s.snap)
	tr.end(i)
	i = tr.begin("machine.New")
	s.m = machine.New(s.mcfg)
	tr.end(i)
	i = tr.begin("workloads.App.Launch")
	s.app.Launch(s.m)
	tr.end(i)
	i = tr.begin("machine.Run")
	s.res = s.m.Run(machine.RunLimits{})
	tr.end(i)
	return nil
}

// check fails a run that faulted or left threads behind, and any run
// whose simulated outcome differs from the first iteration's: with a
// restore before every run, each iteration must replay exactly.
func (s *simApp) check() error {
	if s.res.Err != nil {
		return s.res.Err
	}
	if !s.res.AllDone {
		return errors.New("run ended with live threads")
	}
	d := s.digest()
	if !s.hasRef {
		s.ref, s.hasRef = d, true
		return nil
	}
	if d != s.ref {
		return fmt.Errorf("outcome digest %#x differs from the first iteration's %#x", d, s.ref)
	}
	return nil
}

// digest is an FNV-64a hash of the run's cycles, steps, every event's
// per-ring ground truth and the kernel's statistics.
func (s *simApp) digest() uint64 {
	h := fnv.New64a()
	words := []uint64{s.res.Cycles, s.res.Steps}
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		words = append(words, s.m.GroundTruthRing(ev, pmu.RingUser), s.m.GroundTruthRing(ev, pmu.RingKernel))
	}
	binary.Write(h, binary.LittleEndian, words)          // hash writes cannot fail
	binary.Write(h, binary.LittleEndian, s.m.Kern.Stats) // all fields are uint64
	return h.Sum64()
}

func (s *simApp) counts() map[string]float64 {
	m, st := s.m, s.m.Kern.Stats
	gt := func(ev pmu.Event) float64 { return float64(m.TotalGroundTruth(ev)) }
	loads, stores := gt(pmu.EvLoads), gt(pmu.EvStores)
	return map[string]float64{
		"machine.steps":         float64(s.res.Steps),
		"machine.sim_cycles":    float64(s.res.Cycles),
		"cpu.instr_user":        float64(m.GroundTruthRing(pmu.EvInstructions, pmu.RingUser)),
		"cpu.instr_kernel":      float64(m.GroundTruthRing(pmu.EvInstructions, pmu.RingKernel)),
		"cpu.branches":          gt(pmu.EvBranches),
		"cpu.branch_miss_rate":  ratio(gt(pmu.EvBranchMiss), gt(pmu.EvBranches)),
		"cpu.atomics":           gt(pmu.EvAtomics),
		"cache.loads":           loads,
		"cache.stores":          stores,
		"cache.l1d_miss_rate":   ratio(gt(pmu.EvL1DMiss), loads+stores),
		"cache.l2_miss_rate":    ratio(gt(pmu.EvL2Miss), gt(pmu.EvL1DMiss)),
		"cache.llc_misses":      gt(pmu.EvLLCMiss),
		"tlb.dtlb_miss_rate":    ratio(gt(pmu.EvDTLBMiss), loads+stores),
		"tlb.walks":             gt(pmu.EvDTLBWalk),
		"kernel.syscalls":       float64(st.Syscalls),
		"kernel.ctx_switches":   float64(st.CtxSwitches),
		"kernel.preemptions":    float64(st.Preemptions),
		"kernel.migrations":     float64(st.Migrations),
		"kernel.pmis":           float64(st.PMIs),
		"kernel.overflow_folds": float64(st.OverflowFolds),
		"kernel.mux_rotations":  float64(st.MuxRotations),
		"kernel.frames":         float64(len(m.Kern.Frames())),
		"mem.pages":             float64(s.app.Space.PageCount()),
	}
}

// interpreterMix returns the user-ring step mix the layer probes price:
// steps by instruction class, ALU being every step that is not a load,
// store, branch or atomic.
func (s *simApp) interpreterMix() map[string]float64 {
	u := func(ev pmu.Event) float64 { return float64(s.m.GroundTruthRing(ev, pmu.RingUser)) }
	mix := map[string]float64{
		"load":   u(pmu.EvLoads),
		"store":  u(pmu.EvStores),
		"branch": u(pmu.EvBranches),
		"atomic": u(pmu.EvAtomics),
	}
	mix["alu"] = max(0, float64(s.res.Steps)-mix["load"]-mix["store"]-mix["branch"]-mix["atomic"])
	return mix
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// muxWindow is the series window: about 40 windows over the mysql run.
const muxWindow = 200_000

// muxReport is the mysql app with every built-in metric's events
// opened as width-2 multiplexed groups on a 6-counter PMU, followed by
// the output pipeline: frames, windowed series, both JSONL round trips
// and the HTML report.
type muxReport struct {
	*simApp
	defs []*metrics.Def

	frames, framesBack []metrics.Frame
	rows               []metrics.WindowRow
	framesJSONL        []byte
	seriesJSONL        []byte
	windows            int
	html               []byte
	refHTML            []byte
}

func newMuxReport(seed uint64) (workload, error) {
	ins := workloads.LimitInstr()
	ins.MuxGroups = workloads.DefaultMuxGroups(2)
	mcfg := machine.DefaultConfig()
	mcfg.PMU.NumCounters = 6
	r := &muxReport{simApp: newSimApp(workloads.BuildMySQL(workloads.DefaultMySQL(), ins), mcfg, seed)}
	for i := range metrics.Builtin {
		r.defs = append(r.defs, &metrics.Builtin[i])
	}
	return r, nil
}

func (r *muxReport) iterate(tr *tracer) error {
	if err := r.simApp.iterate(tr); err != nil {
		return err
	}
	i := tr.begin("metrics.FromKernel")
	r.frames = metrics.FromKernel(r.m.Kern)
	tr.end(i)

	i = tr.begin("metrics.Windowed")
	ss, err := metrics.Windowed(r.frames, muxWindow, metrics.SplitThread)
	tr.end(i)
	if err != nil {
		return err
	}
	r.windows = len(ss.Windows)
	i = tr.begin("metrics.SeriesSet.Rows")
	rows := ss.Rows(r.defs)
	tr.end(i)

	var fb, sb, hb bytes.Buffer
	i = tr.begin("metrics.WriteJSONL")
	err = metrics.WriteJSONL(&fb, r.frames)
	tr.end(i)
	if err != nil {
		return err
	}
	i = tr.begin("metrics.ParseJSONL")
	r.framesBack, err = metrics.ParseJSONL(bytes.NewReader(fb.Bytes()))
	tr.end(i)
	if err != nil {
		return err
	}
	i = tr.begin("metrics.WriteSeriesJSONL")
	err = metrics.WriteSeriesJSONL(&sb, rows)
	tr.end(i)
	if err != nil {
		return err
	}
	i = tr.begin("metrics.ParseSeriesJSONL")
	r.rows, err = metrics.ParseSeriesJSONL(bytes.NewReader(sb.Bytes()))
	tr.end(i)
	if err != nil {
		return err
	}
	r.framesJSONL, r.seriesJSONL = fb.Bytes(), sb.Bytes()

	i = tr.begin("report.Artifact.Render")
	a := report.New("mux-report", "mysql, width-2 groups on 6 counters")
	a.AddSeries(fmt.Sprintf("Metric time series (window=%d cycles, split=thread)", muxWindow), r.rows)
	err = a.Render(&hb)
	tr.end(i)
	r.html = hb.Bytes()
	return err
}

// check adds the output pipeline's invariants to the run checks: the
// frames survive their JSONL round trip, the series re-encodes to the
// same bytes, its signed per-window inputs telescope to the frames'
// end-of-run totals, and the HTML repeats byte for byte.
func (r *muxReport) check() error {
	if err := r.simApp.check(); err != nil {
		return err
	}
	if !reflect.DeepEqual(r.frames, r.framesBack) {
		return errors.New("frames changed across their JSONL round trip")
	}
	var again bytes.Buffer
	if err := metrics.WriteSeriesJSONL(&again, r.rows); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), r.seriesJSONL) {
		return errors.New("series changed across its JSONL round trip")
	}
	sums := map[string]int64{}
	for _, row := range r.rows {
		for name, d := range row.Inputs {
			sums[name] += d
		}
	}
	totals := metrics.Totals(r.frames)
	if len(sums) != len(totals) {
		return fmt.Errorf("series has %d inputs, frame totals %d events", len(sums), len(totals))
	}
	for name, total := range totals {
		if sums[name] != int64(total) {
			return fmt.Errorf("series inputs for %s sum to %d, frame total is %d", name, sums[name], total)
		}
	}
	if r.refHTML == nil {
		r.refHTML = r.html
	} else if !bytes.Equal(r.html, r.refHTML) {
		return errors.New("HTML report differs from the first iteration's")
	}
	return nil
}

func (r *muxReport) counts() map[string]float64 {
	c := r.simApp.counts()
	c["metrics.windows"] = float64(r.windows)
	c["metrics.jsonl_kb"] = float64(len(r.framesJSONL)+len(r.seriesJSONL)) / 1024
	c["report.html_kb"] = float64(len(r.html)) / 1024
	return c
}

// campaignSeeds is the seeds per mix of one benchmark campaign: with
// the 5 default mixes, 5 jobs, short enough that a run holds the 100
// campaigns a p90 with ten samples beyond it needs.
const campaignSeeds = 1

// campaignWidth is the runner width, the core count of the 2-core
// host the benchmark was sized on.
const campaignWidth = 2

// campaign is one read-path chaos campaign per iteration: its jobs
// claimed through the runner, then assembled and rendered.
type campaign struct {
	space *chaos.CampaignSpace
	cfg   chaos.Config // the assembled campaign: campaignSeeds per mix
	first int          // first seed index of each mix this seed selects

	res      *chaos.Result
	text     []byte
	refText  []byte
	payloadB int
}

// newCampaign selects seed indices first..first+campaignSeeds-1 of
// every mix by job key, so each --seed runs different jobs that still
// assemble as a campaignSeeds-seed campaign. Set-up includes one job
// per worker: the space builds a worker's pooled workload and snapshot
// on its first job.
func newCampaign(seed uint64) (workload, error) {
	c := &campaign{
		cfg:   chaos.Config{Seeds: campaignSeeds, Metrics: true},
		first: campaignSeeds * int(seed%4096),
	}
	spaceCfg := c.cfg
	spaceCfg.Seeds = c.first + campaignSeeds
	c.space = chaos.NewCampaignSpace(spaceCfg)
	for w := 0; w < campaignWidth; w++ {
		if _, err := c.space.Run(c.key(w), w); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// key maps job j of the assembled campaign to its key in the space.
func (c *campaign) key(j int) int {
	return j/campaignSeeds*c.space.Config().Seeds + c.first + j%campaignSeeds
}

func (c *campaign) iterate(tr *tracer) error {
	jobs := len(c.space.Config().Mixes) * campaignSeeds
	payloads := make([][]byte, jobs)
	root := tr.begin("runner.Run")
	err := runner.Run(runner.Config{Jobs: jobs, Parallel: campaignWidth}, func(j, w int) error {
		i := tr.beginWorker("chaos.CampaignSpace.Run", w, root)
		p, err := c.space.Run(c.key(j), w)
		tr.end(i)
		payloads[j] = p
		return err
	})
	tr.end(root)
	if err != nil {
		return err
	}
	c.payloadB = 0
	for _, p := range payloads {
		c.payloadB += len(p)
	}

	i := tr.begin("chaos.AssembleCampaign")
	c.res, err = chaos.AssembleCampaign(c.cfg, payloads)
	tr.end(i)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	i = tr.begin("chaos.Result.Render")
	c.res.Render(&buf)
	tr.end(i)
	c.text = buf.Bytes()
	return nil
}

// check fails any broken invariant or failed run, and a rendered report
// that differs from the first iteration's.
func (c *campaign) check() error {
	if v := c.res.TotalViolations(); v > 0 {
		return fmt.Errorf("campaign reported %d invariant violation(s)", v)
	}
	if n := c.res.TotalRunErrors(); n > 0 {
		return fmt.Errorf("campaign reported %d failed run(s)", n)
	}
	if c.refText == nil {
		c.refText = c.text
	} else if !bytes.Equal(c.text, c.refText) {
		return errors.New("campaign report differs from the first iteration's")
	}
	return nil
}

func (c *campaign) counts() map[string]float64 {
	out := map[string]float64{"chaos.payload_kb": float64(c.payloadB) / 1024}
	for _, m := range c.res.Mixes {
		out["kernel.ctx_switches"] += float64(m.CtxSwitches)
		out["kernel.migrations"] += float64(m.Migrations)
		out["kernel.overflow_folds"] += float64(m.Folds)
		out["chaos.reads"] += float64(m.ReadsCompleted)
		out["chaos.rewinds"] += float64(m.Rewinds)
	}
	if ctr := c.res.Telemetry.LookupCounter("kern.syscalls"); ctr != nil {
		out["kernel.syscalls"] = float64(ctr.Value())
	}
	if ctr := c.res.Telemetry.LookupCounter("kern.pmi.count"); ctr != nil {
		out["kernel.pmis"] = float64(ctr.Value())
	}
	return out
}
