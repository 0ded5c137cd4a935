// Package chaos runs seeded fault-injection campaigns against the
// LiMiT read path: N seeds × a matrix of fault mixes, every run
// carrying the faultinject injector and the invariant checker. A
// campaign is the executable form of the paper's atomicity claim —
// under forced preemption at every read boundary, spurious/delayed
// overflow interrupts, migration storms, flush storms and narrowed
// counter widths, the measured per-region deltas must stay exact and
// the invariant checker must stay silent. Disable fixup registration
// (the ablation) and the same campaign reports the torn reads instead
// of panicking.
//
// The campaign workload is a multi-threaded read loop: each thread
// owns a LiMiT instruction counter and repeatedly measures a
// fixed-size compute region with the stock rdpmc+load+add sequence,
// storing every measured delta. Because the region's true cost is
// known statically (K compute instructions + the read sequence
// itself), every stored delta is its own oracle: a fold landing inside
// an unrewound read shifts the delta by a full write-limit chunk,
// orders of magnitude beyond the re-execution slack.
package chaos

import (
	"errors"
	"fmt"
	"io"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/isa"
	"limitsim/internal/limit"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/runner"
	"limitsim/internal/tabwrite"
	"limitsim/internal/telemetry"
)

// Mix names one fault-injection configuration of the campaign matrix.
type Mix struct {
	Name   string
	Inject faultinject.Config // Seed is overridden per run
}

// DefaultMixes returns the standard campaign matrix, from a clean
// baseline to the full storm. Rates use primes so no fault class can
// phase-lock with the workload's loop period.
func DefaultMixes() []Mix {
	return []Mix{
		{Name: "baseline", Inject: faultinject.Config{}},
		{Name: "preempt-storm", Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
		}},
		{Name: "pmi-storm", Inject: faultinject.Config{
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
		}},
		{Name: "migrate+flush", Inject: faultinject.Config{
			MigrationStorm: true, FlushEvery: 499,
		}},
		{Name: "full-mix", Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
			MigrationStorm: true, FlushEvery: 499,
			SignalDelayBoundaries: 5,
		}},
	}
}

// TenantMixes returns the multi-tenant campaign matrix: vCPU
// preemption storms at read-region boundaries, cross-tenant migration
// pressure, and the combined storm at both scheduling levels. The
// baseline still exercises the double context switch — tenant-quantum
// rotation alone forces vCPU switches — it just adds no injected
// faults on top.
func TenantMixes() []Mix {
	return []Mix{
		{Name: "tenant-baseline", Inject: faultinject.Config{}},
		{Name: "vcpu-preempt-storm", Inject: faultinject.Config{
			VCpuPreemptInRegions: true, VCpuPreemptEvery: 701,
		}},
		// Delayed overflow service with only occasional vCPU churn: the
		// double switches that do land must not drain the withheld PMIs
		// so aggressively that folds never meet an in-flight read — this
		// is the tenant mix whose ablation (-nofixup) demonstrably tears.
		{Name: "tenant-pmi-storm", Inject: faultinject.Config{
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
			VCpuPreemptEvery: 701,
		}},
		{Name: "vcpu-migrate+flush", Inject: faultinject.Config{
			VCpuPreemptEvery: 701, MigrationStorm: true, FlushEvery: 499,
		}},
		{Name: "tenant-full-mix", Inject: faultinject.Config{
			VCpuPreemptInRegions: true, VCpuPreemptEvery: 701,
			PreemptInRegions: true, PreemptEvery: 997,
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
			MigrationStorm: true, FlushEvery: 499,
			SignalDelayBoundaries: 5,
		}},
	}
}

// Config shapes a campaign.
type Config struct {
	// Seeds is how many seeds each mix runs (default 8).
	Seeds int
	// Threads is the workload's thread count (default 6 — more
	// threads than the default 4 cores, so natural quantum preemption
	// and run-queue contention join whatever the mix injects).
	Threads int
	// Cores is the machine's core count (default 4).
	Cores int
	// Iters is reads per thread (default 400).
	Iters int
	// ComputeK is the measured region's compute-instruction count
	// (default 25).
	ComputeK int
	// WriteWidth narrows the PMU's writable counter width so overflow
	// folds happen constantly (default 12 bits — a fold every 4096
	// events instead of every 2^31). Must be at least 10 so a torn
	// read's chunk-sized error stays far above the re-execution slack.
	WriteWidth int
	// NoFixup disables fixup-region registration — the ablation that
	// must make the campaign report torn reads.
	NoFixup bool
	// Metrics attaches the kernel telemetry layer to every run and
	// merges the per-run registries into Result.Telemetry. Off by
	// default: campaigns are hot loops and the telemetry block is a
	// diagnosis aid, not part of the verdict.
	Metrics bool
	// Parallel is the worker count runs fan out across: 1 is the
	// serial engine, <= 0 uses GOMAXPROCS. Reports are byte-identical
	// at every width — runs are independent simulations and results
	// merge in (mix, seed) key order after the pool drains.
	Parallel int
	// Tenants, when > 1, activates the kernel's guest-scheduler layer:
	// workload threads are dealt round-robin across that many tenant
	// VMs, every run gets a shared uncore counter block, the mix matrix
	// defaults to TenantMixes, and the tenant attribution oracles
	// (conservation, no cross-tenant leakage, uncore share bounds) run
	// after every run.
	Tenants int
	// Mixes is the fault matrix (default DefaultMixes; TenantMixes
	// when Tenants > 1).
	Mixes []Mix
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 8
	}
	if c.Threads <= 0 {
		c.Threads = 6
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.Iters <= 0 {
		c.Iters = 400
	}
	if c.ComputeK <= 0 {
		c.ComputeK = 25
	}
	if c.WriteWidth <= 0 {
		c.WriteWidth = 12
	}
	if len(c.Mixes) == 0 {
		if c.Tenants > 1 {
			c.Mixes = TenantMixes()
		} else {
			c.Mixes = DefaultMixes()
		}
	}
	return c
}

// deltaSlack is the tolerated overshoot of a measured delta above its
// static cost: re-executed instructions from fixup rewinds (budgeted
// per region pass) plus the odd natural preemption. A torn read is off
// by a full write-limit chunk (≥ 2^10), far beyond it.
const deltaSlack = 256

// runSteps bounds one run; hitting it means a livelock and is reported
// as a run error rather than a hang.
const runSteps = 50_000_000

// MixResult aggregates one mix's runs across all seeds. SoakMixResult
// embeds it.
type MixResult struct {
	Name string
	Runs int
	// RunErrors counts runs that faulted, deadlocked, or hit the step
	// bound; Errs keeps one message per failed run.
	RunErrors int
	Errs      []string

	Injected faultinject.Stats

	Rewinds        uint64
	Folds          uint64
	CtxSwitches    uint64
	Migrations     uint64
	ReadsCompleted uint64

	// TornDeltas counts stored deltas outside [want, want+slack] — the
	// value oracle's torn reads.
	TornDeltas uint64
	// CheckerViolations is the invariant checker's total count.
	CheckerViolations int
	// Samples holds a few representative checker violations.
	Samples []invariant.Violation

	// Tenant-layer aggregates (zero unless the campaign ran with
	// Tenants > 1).
	TenantStats
}

// Violations is the mix's total evidence of broken invariants from
// both oracles.
func (m *MixResult) Violations() uint64 {
	return m.TornDeltas + uint64(m.CheckerViolations)
}

// Result is a full campaign's outcome.
type Result struct {
	Cfg   Config
	Mixes []MixResult
	// Want is the static per-read delta every stored measurement is
	// judged against.
	Want uint64
	// Telemetry is the campaign-wide kernel metrics registry, merged
	// across every run, when Cfg.Metrics is set (nil otherwise).
	// Byte-deterministic for a given Config, like the rest of the
	// report.
	Telemetry *telemetry.Registry
}

// TotalViolations sums violations across the matrix.
func (r *Result) TotalViolations() uint64 {
	var n uint64
	for i := range r.Mixes {
		n += r.Mixes[i].Violations()
	}
	return n
}

// TotalRunErrors sums failed runs across the matrix.
func (r *Result) TotalRunErrors() int {
	n := 0
	for i := range r.Mixes {
		n += r.Mixes[i].RunErrors
	}
	return n
}

// Verdict applies the campaign's exit discipline: a failed run is
// always an error; with the fixup active so is any violation, and under
// the ablation (Cfg.NoFixup) so is detecting none — a blind checker is
// as bad as a torn read.
func (r *Result) Verdict() error {
	violations := r.TotalViolations()
	switch errs := r.TotalRunErrors(); {
	case errs > 0:
		return fmt.Errorf("%d run(s) failed", errs)
	case r.Cfg.NoFixup && violations == 0:
		return errors.New("fixup disabled but no torn reads detected — checker is blind")
	case !r.Cfg.NoFixup && violations > 0:
		return fmt.Errorf("%d invariant violation(s) with fixup enabled", violations)
	}
	return nil
}

// Run executes the campaign: for each mix, Seeds independent runs of
// the instrumented workload under that mix's injector, every run
// watched by the invariant checker and scored by the value oracle.
//
// It is the campaign's job space run in process: the space's jobs fan
// out across cfg.Parallel workers through the runner engine, and their
// outcomes fold in (mix, seed) key order through the same assemble step
// AssembleCampaign applies to fleet payloads — so the rendered report
// is byte-identical at every pool width and fleet width.
func Run(cfg Config) *Result {
	s := NewCampaignSpace(cfg)
	outs, err := runner.Map(runner.Config{Jobs: s.NumJobs(), Parallel: s.cfg.Parallel}, s.run)
	if err != nil {
		panic(err) // jobs are in range and a run records its own failure
	}
	res, err := assembleCampaign(s.cfg, outs)
	if err != nil {
		panic(err) // in-process outcomes share one registry schema
	}
	return res
}

// workload is one built campaign program.
type workload struct {
	prog    *isa.Program
	space   *mem.Space
	entries []int
	bufs    []uint64
	regions [][2]int
	want    uint64 // static per-read delta: ComputeK + read-sequence length
}

// buildWorkload assembles the multi-threaded read loop. Each thread
// gets its own body, emitter, counter table and delta buffer, so
// per-thread virtualization is genuinely independent and the checker's
// fold generations never alias.
func buildWorkload(cfg Config) *workload {
	w := &workload{space: mem.NewSpace()}
	b := isa.NewBuilder()
	for i := 0; i < cfg.Threads; i++ {
		table := limit.AllocTable(w.space, 1)
		e := limit.NewEmitter(b, limit.ModeStock, table)
		ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
		if cfg.NoFixup {
			e.DisableFixupRegistration()
		}
		buf := w.space.AllocWords(uint64(cfg.Iters))
		w.bufs = append(w.bufs, buf)
		w.entries = append(w.entries, b.PC())
		e.EmitInit()
		b.MovImm(isa.R12, int64(buf))
		b.MovImm(isa.R8, 0)
		loop := fmt.Sprintf("chaos.t%d.loop", i)
		b.Label(loop)
		e.EmitMeasureStart(isa.R4, isa.R5, ctr)
		b.Compute(int64(cfg.ComputeK))
		e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
		b.Shl(isa.R13, isa.R8, 3)
		b.Add(isa.R13, isa.R13, isa.R12)
		b.Store(isa.R13, 0, isa.R6)
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, int64(cfg.Iters))
		b.Br(isa.CondLT, isa.R8, isa.R9, loop)
		b.Halt()
		e.EmitFinish()
		w.regions = append(w.regions, e.Regions()...)
	}
	w.prog = b.MustBuild()
	r := w.regions[0]
	w.want = uint64(cfg.ComputeK) + uint64(r[1]-r[0])
	return w
}

// campaignWorker is one pool worker: the campaign workload, built once,
// and the harness that restores it before every run.
type campaignWorker struct {
	harness
	w *workload
}

func newCampaignWorker(cfg Config) *campaignWorker {
	w := buildWorkload(cfg)
	return &campaignWorker{w: w, harness: newHarness(w.space, w.regions, cfg.Cores, cfg.Tenants, cfg.Metrics)}
}

// run executes a single seeded campaign run of mix on the worker.
func (ws *campaignWorker) run(cfg Config, mix Mix, seed uint64) runOutcome {
	w := ws.w
	m := ws.start(machineConfig(seed, cfg.Cores, cfg.WriteWidth, cfg.Tenants), mix.Inject)
	proc := m.Kern.NewProcess(w.prog, w.space)
	for i := 0; i < cfg.Threads; i++ {
		t := m.Kern.Spawn(proc, fmt.Sprintf("chaos%d", i), w.entries[i], seed*31+uint64(i))
		if cfg.Tenants > 1 {
			t.Tenant = i % cfg.Tenants // deal threads round-robin across guests
		}
	}

	var out runOutcome
	simulate(m, seed, &out)
	ws.chk.Finalize(proc, m.Kern.Threads(), 0)
	out.checkTenants(m, ws.chk)

	// Value oracle: every stored delta must sit within the static
	// cost's slack; a torn read is off by a write-limit chunk.
	for ti := 0; ti < cfg.Threads; ti++ {
		for it := 0; it < cfg.Iters; it++ {
			d := w.space.Read64(w.bufs[ti] + uint64(it)*8)
			if d < w.want || d > w.want+deltaSlack {
				out.TornDeltas++
			}
		}
	}
	ws.finish(m, &out)
	return out
}

// Render writes the campaign table (and a violation detail section
// when any invariant broke). Output is byte-deterministic for a given
// Config.
func (r *Result) Render(w io.Writer) {
	fixup := "enabled"
	if r.Cfg.NoFixup {
		fixup = "DISABLED (ablation)"
	}
	title := fmt.Sprintf("Chaos campaign: %d seed(s) x %d mix(es), %d threads / %d cores, %d-bit writes, fixup %s",
		r.Cfg.Seeds, len(r.Mixes), r.Cfg.Threads, r.Cfg.Cores, r.Cfg.WriteWidth, fixup)
	t := tabwrite.New(title,
		"mix", "runs", "injected", "preempts", "spur-pmi", "delay-pmi",
		"migrations", "flushes", "rewinds", "folds", "reads", "torn", "violations", "errors")
	mixes := make([]*MixResult, len(r.Mixes))
	for i := range r.Mixes {
		m := &r.Mixes[i]
		mixes[i] = m
		t.Row(m.Name, m.Runs, m.Injected.Total(),
			m.Injected.ForcedPreemptions+m.Injected.RandomPreemptions,
			m.Injected.SpuriousPMIs, m.Injected.DelayedPMIs,
			m.Migrations, m.Injected.Flushes,
			m.Rewinds, m.Folds, m.ReadsCompleted,
			m.TornDeltas, m.CheckerViolations, m.RunErrors)
	}
	t.Render(w)
	renderTenants(w, r.Cfg.Tenants, mixes)
	renderFooter(w, mixes, r.TotalViolations(), func(d *tabwrite.Table, i int) {
		if m := mixes[i]; m.TornDeltas > 0 {
			d.Row(m.Name, "-", "torn-delta",
				fmt.Sprintf("%d measured delta(s) outside [%d,%d]",
					m.TornDeltas, r.Want, r.Want+deltaSlack))
		}
	}, r.Telemetry)
}
