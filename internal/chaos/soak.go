package chaos

import (
	"errors"
	"fmt"
	"io"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/kernel"
	"limitsim/internal/runner"
	"limitsim/internal/tabwrite"
	"limitsim/internal/telemetry"
	"limitsim/internal/tls"
	"limitsim/internal/workloads"
)

// Soak campaign: the lifecycle analogue of the read-path campaign in
// this package. Where Run hammers a static thread set's read sequences,
// RunSoak drives the churning thread-pool workload (workloads.Churn —
// a manager cloning and joining waves of short-lived workers, the
// MySQL-connection-churn shape) through a matrix of lifecycle fault
// mixes: forced preemption inside read regions, asynchronous kills of
// pool workers, clone storms that stampede inheritance, and pinned-slot
// capacities tight enough to force graceful degradation. Every run
// carries the invariant checker; after every run the campaign audits
// leak-freedom (all slots, table words and region registrations
// returned), inheritance conservation (an inherited counter's reap
// value equals its thread's true instruction total), and the value
// oracle over every exact worker measurement. Estimated (degraded)
// runs are accounted separately — flagged, never silently wrong.

// SoakMix names one lifecycle fault mix. SlotCapacity, when nonzero,
// overrides the campaign's pinned-slot ledger capacity for this mix —
// exhaustion is a fault class here, not just a config.
type SoakMix struct {
	Name         string
	Inject       faultinject.Config // Seed/CloneEntry are set per run
	SlotCapacity int
}

// DefaultSoakMixes returns the standard lifecycle matrix for a pool of
// the given width. Rates use primes so no fault class phase-locks with
// the wave period.
func DefaultSoakMixes(pool int) []SoakMix {
	full := 2*(pool+1) + 4
	return []SoakMix{
		{Name: "churn-only", Inject: faultinject.Config{}},
		{Name: "preempt-churn", Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
		}},
		// Delayed PMIs slide folds into the read window; with fixup
		// active the rewind absorbs them, without it this is the mix
		// that reliably exposes torn reads.
		{Name: "pmi-churn", Inject: faultinject.Config{
			SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
		}},
		{Name: "kill-storm", Inject: faultinject.Config{
			KillEvery: 40009, KillClonesOnly: true,
		}},
		{Name: "clone-storm", Inject: faultinject.Config{
			CloneEvery: 20011, CloneBudget: 48,
		}},
		{Name: "slot-burst", SlotCapacity: 2 * pool, Inject: faultinject.Config{
			CloneEvery: 30011, CloneBudget: 32,
		}},
		{Name: "mgr-fallback", SlotCapacity: 1, Inject: faultinject.Config{}},
		{Name: "full-churn", SlotCapacity: full, Inject: faultinject.Config{
			PreemptInRegions: true, PreemptEvery: 997,
			KillEvery: 40009, KillClonesOnly: true,
			CloneEvery: 20011, CloneBudget: 48,
		}},
	}
}

// SoakConfig shapes a soak campaign.
type SoakConfig struct {
	// Seeds is how many seeds each mix runs (default 8).
	Seeds int
	// Pool is the worker-pool width (default 4).
	Pool int
	// Waves is clone/join rounds per run (default 6).
	Waves int
	// Iters is measured reads per worker (default 40).
	Iters int
	// ComputeK is the measured region's compute count (default 20).
	ComputeK int
	// Cores is the machine's core count (default 4).
	Cores int
	// WriteWidth narrows the PMU's writable width so even short-lived
	// workers cross fold boundaries (default MinWriteWidth).
	WriteWidth int
	// SlotCapacity is the pinned-slot ledger capacity for mixes that do
	// not override it (default 2*(Pool+1)+4: the full pool plus
	// headroom for storm children).
	SlotCapacity int
	// Retries is the manager OpenPolicy retry budget (0: policy
	// default).
	Retries int
	// NoFixup disables fixup-region registration — the ablation the
	// campaign must detect as torn reads.
	NoFixup bool
	// AblateReclaim disables exit-time resource reclamation — the
	// ablation the leak and bad-reap oracles must detect.
	AblateReclaim bool
	// Metrics attaches the kernel telemetry layer to every run and
	// merges the per-run registries into SoakResult.Telemetry.
	Metrics bool
	// Parallel is the worker count runs fan out across: 1 is the
	// serial engine, <= 0 uses GOMAXPROCS. Each worker builds the churn
	// workload once and keeps it across every mix; reports stay
	// byte-identical at every width.
	Parallel int
	// Tenants, when > 1, runs that many independent manager+pool copies
	// as guest VMs under the kernel's tenant scheduler: slot capacities
	// scale with the combined pool, a vCPU-churn mix joins the matrix,
	// and the tenant attribution oracles run after every run.
	Tenants int
	// Mixes is the lifecycle fault matrix (default soakMixes).
	Mixes []SoakMix
}

// WithDefaults fills every unset field with its default, as
// Config.WithDefaults does for the campaign.
func (c SoakConfig) WithDefaults() SoakConfig {
	if c.Seeds <= 0 {
		c.Seeds = 8
	}
	if c.Pool <= 0 {
		c.Pool = 4
	}
	if c.Waves <= 0 {
		c.Waves = 6
	}
	if c.Iters <= 0 {
		c.Iters = 40
	}
	if c.ComputeK <= 0 {
		c.ComputeK = 20
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.WriteWidth <= 0 {
		c.WriteWidth = MinWriteWidth
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.SlotCapacity <= 0 {
		// The combined pool across all guests, plus storm headroom.
		c.SlotCapacity = 2*c.Tenants*(c.Pool+1) + 4
	}
	if len(c.Mixes) == 0 {
		c.Mixes = soakMixes(c.Pool, c.Tenants)
	}
	return c
}

// soakMixes returns the default lifecycle matrix for a soak of the
// given per-tenant pool width and tenant count: DefaultSoakMixes sized
// to the combined pool, plus — when the tenant layer is on — a
// vCPU-churn mix that lands double context switches inside read
// regions while the pools churn.
func soakMixes(pool, tenants int) []SoakMix {
	if tenants <= 0 {
		tenants = 1
	}
	mixes := DefaultSoakMixes(tenants * pool)
	if tenants > 1 {
		mixes = append(mixes, SoakMix{Name: "vcpu-churn",
			Inject: faultinject.Config{
				VCpuPreemptInRegions: true, VCpuPreemptEvery: 701,
			}})
	}
	return mixes
}

func (c SoakConfig) churn() workloads.ChurnConfig {
	return workloads.ChurnConfig{
		Pool:     c.Pool,
		Waves:    c.Waves,
		Iters:    c.Iters,
		ComputeK: c.ComputeK,
		Retries:  c.Retries,
		NoFixup:  c.NoFixup,
		Tenants:  c.Tenants,
	}
}

// WaveAcct is one wave's worker-run accounting, aggregated across a
// mix's seeds.
type WaveAcct struct {
	Exact   uint64 // completed on the exact rdpmc path
	Est     uint64 // completed on the flagged estimated path
	Partial uint64 // killed (or degraded mid-run) before finishing
}

// SoakMixResult aggregates one lifecycle mix's runs across all seeds:
// the read-path accounting every campaign keeps, plus the lifecycle
// traffic and the soak's own oracles.
type SoakMixResult struct {
	MixResult

	// Kernel lifecycle traffic.
	Clones uint64
	Exits  uint64
	Kills  uint64

	// Slot-ledger pressure and its visible consequences.
	Denials      uint64
	DegradedRuns uint64 // worker runs flagged as estimates

	CompletedRuns uint64
	PartialRuns   uint64
	Waves         []WaveAcct

	// TornDeltas (in MixResult) counts exact-path measurements outside
	// the static cost's slack; BadConservation counts inherited
	// counters whose reap value diverged from the thread's true
	// instruction count; Leaks counts resource-leak reports from the
	// end-of-run audit.
	BadConservation uint64
	Leaks           int
}

// Violations totals the mix's evidence from all three oracles.
func (m *SoakMixResult) Violations() uint64 {
	return m.TornDeltas + m.BadConservation + uint64(m.CheckerViolations)
}

// SoakResult is a full soak campaign's outcome.
type SoakResult struct {
	Cfg   SoakConfig
	Mixes []SoakMixResult
	// Want is the static per-read delta exact measurements are judged
	// against.
	Want uint64
	// Telemetry is the campaign-wide kernel metrics registry, merged
	// across every run, when Cfg.Metrics is set (nil otherwise).
	Telemetry *telemetry.Registry
}

// TotalViolations sums violations across the matrix.
func (r *SoakResult) TotalViolations() uint64 {
	var n uint64
	for i := range r.Mixes {
		n += r.Mixes[i].Violations()
	}
	return n
}

// TotalRunErrors sums failed runs across the matrix.
func (r *SoakResult) TotalRunErrors() int {
	n := 0
	for i := range r.Mixes {
		n += r.Mixes[i].RunErrors
	}
	return n
}

// TotalDegraded sums flagged estimated runs across the matrix.
func (r *SoakResult) TotalDegraded() uint64 {
	var n uint64
	for i := range r.Mixes {
		n += r.Mixes[i].DegradedRuns
	}
	return n
}

// Verdict applies the soak's exit discipline: a failed run is always
// an error; a sabotaged configuration (Cfg.NoFixup or
// Cfg.AblateReclaim) must detect its own damage, and a healthy one
// must detect nothing.
func (r *SoakResult) Verdict() error {
	sabotaged := r.Cfg.NoFixup || r.Cfg.AblateReclaim
	violations := r.TotalViolations()
	switch errs := r.TotalRunErrors(); {
	case errs > 0:
		return fmt.Errorf("%d soak run(s) failed", errs)
	case sabotaged && violations == 0:
		return errors.New("ablation enabled but no violations detected — the oracles are blind")
	case !sabotaged && violations > 0:
		return fmt.Errorf("%d violation(s) in a healthy soak", violations)
	}
	return nil
}

// RunSoak executes the soak campaign: for each lifecycle mix, Seeds
// independent long runs of the churn workload under that mix's
// injector and slot capacity, each audited by the invariant checker
// and the campaign's leak, conservation and value oracles.
//
// Like Run, it is the soak's job space run in process: (mix, seed)
// jobs fan out across cfg.Parallel workers, each worker keeping one
// prebuilt churn workload for every mix, and the outcomes fold in key
// order through the assemble step AssembleSoak shares — so the report
// is byte-identical at every pool width and fleet width.
func RunSoak(cfg SoakConfig) *SoakResult {
	s := NewSoakSpace(cfg)
	outs, err := runner.Map(runner.Config{Jobs: s.NumJobs(), Parallel: s.cfg.Parallel}, s.run)
	if err != nil {
		panic(err) // jobs are in range and a run records its own failure
	}
	res, err := assembleSoak(s.cfg, outs)
	if err != nil {
		panic(err) // in-process outcomes carry cfg.Waves waves and one registry schema
	}
	return res
}

// soakWorker is one pool worker: the churn workload, built once, and
// the harness that restores it before every run.
type soakWorker struct {
	harness
	w *workloads.Churn
}

func newSoakWorker(cfg SoakConfig) *soakWorker {
	w := workloads.BuildChurn(cfg.churn())
	return &soakWorker{w: w, harness: newHarness(w.Space, w.Regions, cfg.Cores, cfg.Tenants, cfg.Metrics)}
}

// soakOutcome is one soak run's contribution to its mix result: the
// campaign outcome plus lifecycle accounting. Like runOutcome, RunSoak
// folds it directly and a fleet payload is its JSON encoding.
type soakOutcome struct {
	runOutcome
	Clones          uint64     `json:"clones"`
	Exits           uint64     `json:"exits"`
	Kills           uint64     `json:"kills"`
	Denials         uint64     `json:"denials"`
	DegradedRuns    uint64     `json:"degraded_runs"`
	CompletedRuns   uint64     `json:"completed_runs"`
	PartialRuns     uint64     `json:"partial_runs"`
	Waves           []WaveAcct `json:"waves"`
	BadConservation uint64     `json:"bad_conservation"`
	Leaks           int        `json:"leaks"`
}

// add folds one run's outcome into the mix; the caller has checked
// that it carries len(m.Waves) waves.
func (m *SoakMixResult) add(o *soakOutcome) {
	m.MixResult.add(&o.runOutcome)
	m.Clones += o.Clones
	m.Exits += o.Exits
	m.Kills += o.Kills
	m.Denials += o.Denials
	m.DegradedRuns += o.DegradedRuns
	m.CompletedRuns += o.CompletedRuns
	m.PartialRuns += o.PartialRuns
	for wv := range o.Waves {
		m.Waves[wv].Exact += o.Waves[wv].Exact
		m.Waves[wv].Est += o.Waves[wv].Est
		m.Waves[wv].Partial += o.Waves[wv].Partial
	}
	m.BadConservation += o.BadConservation
	m.Leaks += o.Leaks
}

// run executes a single seeded soak run of mix on the worker.
func (ws *soakWorker) run(cfg SoakConfig, mix SoakMix, seed uint64) soakOutcome {
	w := ws.w
	mc := machineConfig(seed, cfg.Cores, cfg.WriteWidth, cfg.Tenants)
	mc.Kernel.VirtSlotCapacity = cfg.SlotCapacity
	if mix.SlotCapacity > 0 {
		mc.Kernel.VirtSlotCapacity = mix.SlotCapacity
	}
	mc.Kernel.AblateReclaim = cfg.AblateReclaim
	inject := mix.Inject
	if inject.CloneEvery > 0 {
		inject.CloneEntry = w.StubEntry
	}
	m := ws.start(mc, inject)
	proc := m.Kern.NewProcess(w.Prog, w.Space)
	for mt := 0; mt < cfg.Tenants; mt++ {
		name := "churn-mgr"
		if cfg.Tenants > 1 {
			name = fmt.Sprintf("churn-mgr%d", mt)
		}
		mgr := m.Kern.Spawn(proc, name, w.Entries[mt], seed*31+uint64(mt))
		mgr.SetReg(tls.SlotReg, uint64(w.ManagerSlot(mt)))
		mgr.Tenant = mt
	}

	var out soakOutcome
	res := simulate(m, seed, &out.runOutcome)

	// Leak oracle: with every thread exited, the kernel's resource
	// ledgers must read zero. Under AblateReclaim they must NOT — the
	// checker reporting the leaks is the ablation detecting itself.
	if res.AllDone {
		ws.chk.CheckLeaks(m.Kern.Resources())
	}

	// Group oracles: the mgr-fallback mix's perf counters and every
	// degraded clone's are one-event groups, so their enabled time must
	// conserve and a never-unloaded one must read exactly its truth.
	ws.chk.CheckGroups(m.Kern)

	// Conservation oracle: every cloned thread's inherited instruction
	// counter (index 0, live from birth to reap) must end exactly equal
	// to the thread's true retired-user-instruction count. Degraded
	// children carry perf estimates instead and are exempt by kind.
	// (The end-of-run Finalize pass is deliberately not used here: the
	// pool recycles per-slot table words every wave, so dead workers'
	// counters alias live words; the reap-time capture is the correct
	// final value.)
	for _, t := range m.Kern.Threads() {
		if t.ClonedFrom < 0 {
			continue
		}
		cs := t.Counters()
		if len(cs) == 0 || cs[0].Kind != kernel.KindLimit || cs[0].Closed {
			continue
		}
		if v, ok := ws.chk.ReapValue(t.ID, 0); ok && v != t.Stats.UserInstructions {
			out.BadConservation++
		}
	}

	// Value oracle: every exact-path measurement a worker published
	// before finishing (or dying) must sit within the static cost's
	// slack; estimated runs are flagged, counted, and skipped.
	out.Waves = make([]WaveAcct, cfg.Waves)
	for ri := 0; ri < w.Runs(); ri++ {
		wave := ri / (cfg.Tenants * cfg.Pool)
		est := w.Estimated(ri)
		if est {
			out.DegradedRuns++
		}
		n := w.Done(ri)
		if n > uint64(cfg.Iters) {
			n = uint64(cfg.Iters)
		}
		switch {
		case n < uint64(cfg.Iters):
			out.PartialRuns++
			out.Waves[wave].Partial++
		case est:
			out.CompletedRuns++
			out.Waves[wave].Est++
		default:
			out.CompletedRuns++
			out.Waves[wave].Exact++
		}
		if est {
			continue
		}
		for i := uint64(0); i < n; i++ {
			d := w.Delta(ri, int(i))
			if d < w.Want || d > w.Want+deltaSlack {
				out.TornDeltas++
			}
		}
	}

	// The tenant oracles must hold under every lifecycle storm, kills
	// and clone stampedes included.
	out.checkTenants(m, ws.chk)
	ws.finish(m, &out.runOutcome)

	out.Clones = m.Kern.Stats.Clones
	out.Exits = m.Kern.Stats.Exits
	out.Kills = m.Kern.Stats.Kills
	out.Denials = m.Kern.Resources().SlotDenials
	for _, v := range ws.chk.Violations() {
		if v.Kind == invariant.KindLeak {
			out.Leaks++
		}
	}
	return out
}

// Render writes the soak report: the mix table, the per-wave
// accounting, and violation details when any oracle fired. Output is
// byte-deterministic for a given SoakConfig.
func (r *SoakResult) Render(w io.Writer) {
	fixup := "enabled"
	if r.Cfg.NoFixup {
		fixup = "DISABLED (ablation)"
	}
	reclaim := "enabled"
	if r.Cfg.AblateReclaim {
		reclaim = "DISABLED (ablation)"
	}
	pool := fmt.Sprintf("pool %d", r.Cfg.Pool)
	if r.Cfg.Tenants > 1 {
		pool = fmt.Sprintf("%d tenants x pool %d", r.Cfg.Tenants, r.Cfg.Pool)
	}
	title := fmt.Sprintf("Soak campaign: %d seed(s) x %d mix(es), %s x %d waves x %d reads, %d cores, %d-bit writes, slots %d, fixup %s, reclaim %s",
		r.Cfg.Seeds, len(r.Mixes), pool, r.Cfg.Waves, r.Cfg.Iters,
		r.Cfg.Cores, r.Cfg.WriteWidth, r.Cfg.SlotCapacity, fixup, reclaim)
	t := tabwrite.New(title,
		"mix", "runs", "clones", "exits", "kills", "denials", "degraded",
		"complete", "partial", "rewinds", "folds", "reads",
		"torn", "conserve", "leaks", "violations", "errors")
	mixes := make([]*MixResult, len(r.Mixes))
	for i := range r.Mixes {
		m := &r.Mixes[i]
		mixes[i] = &m.MixResult
		t.Row(m.Name, m.Runs, m.Clones, m.Exits, m.Kills, m.Denials,
			m.DegradedRuns, m.CompletedRuns, m.PartialRuns,
			m.Rewinds, m.Folds, m.ReadsCompleted,
			m.TornDeltas, m.BadConservation, m.Leaks, m.CheckerViolations, m.RunErrors)
	}
	t.Render(w)
	renderTenants(w, r.Cfg.Tenants, mixes)

	wa := tabwrite.New("Per-wave accounting (worker runs across all seeds)",
		"mix", "wave", "exact", "estimated", "partial")
	for i := range r.Mixes {
		m := &r.Mixes[i]
		for wv := range m.Waves {
			wa.Row(m.Name, wv, m.Waves[wv].Exact, m.Waves[wv].Est, m.Waves[wv].Partial)
		}
	}
	wa.Render(w)

	renderFooter(w, mixes, r.TotalViolations(), func(d *tabwrite.Table, i int) {
		m := &r.Mixes[i]
		if m.TornDeltas > 0 {
			d.Row(m.Name, "-", "torn-delta",
				fmt.Sprintf("%d exact measurement(s) outside [%d,%d]",
					m.TornDeltas, r.Want, r.Want+deltaSlack))
		}
		if m.BadConservation > 0 {
			d.Row(m.Name, "-", "bad-conservation",
				fmt.Sprintf("%d inherited counter(s) diverged from true instruction totals",
					m.BadConservation))
		}
	}, r.Telemetry)
}
