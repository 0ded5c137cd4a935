package chaos

import (
	"fmt"
	"io"
	"strings"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
)

// What every campaign and soak run shares: the pooled worker harness,
// the machine it boots, the per-run outcome (which is also the fleet
// payload), the tenant-layer oracle, and the report sections both
// Render methods print.

// maxSamples caps the violation samples kept per run and per mix.
const maxSamples = 8

// traceEvents is the kernel trace ring every run attaches: the tail a
// FaultError carries for post-mortem diagnosis.
const traceEvents = 256

// machineConfig is the machine every run boots: narrowed counter
// writes so overflow folds happen constantly, short slices so natural
// preemption joins the storm, in-kernel folds, and — with tenants — the
// guest scheduler.
func machineConfig(seed uint64, cores, width, tenants int) machine.Config {
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = width

	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	kcfg.Quantum = 30_000
	kcfg.LimitOverflow = kernel.FoldInKernel
	if tenants > 1 {
		kcfg.Tenants = tenants
		// Tenant quantum shorter than the thread quantum: vCPU switches
		// dominate, so nearly every thread deschedule is the double kind.
		kcfg.TenantQuantum = 12_000
		if cores > 1 {
			// Undersubscribe residency so the cap binds and cross-tenant
			// migration pressure is constant, not incidental.
			kcfg.VCPUs = cores - 1
		}
	}
	return machine.Config{NumCores: cores, PMU: feats, Kernel: kcfg}
}

// newRegistry builds a kernel telemetry registry: the kernel metrics,
// per-tenant ones included when the tenant layer is on. Every run's
// registry and the campaign-wide one come from here, so merging the
// former into the latter cannot drift.
func newRegistry(tenants int) (*telemetry.Registry, *kernel.Metrics) {
	reg := telemetry.NewRegistry()
	return reg, kernel.NewMetrics(reg, tenants)
}

// harness holds one pool worker's reusable run artifacts: the
// workload's memory image is snapshotted once and restored before every
// run, and the machine, trace ring, invariant checker, injector and
// telemetry registry are reset in place instead of reallocated. The
// machine keeps its cores' caches, TLBs, predictors and PMUs, so a
// worker's cache tag chunks are allocated by its first runs and reused
// by the rest; Machine.Reset builds only the kernel afresh.
type harness struct {
	space *mem.Space
	snap  *mem.Snapshot
	m     *machine.Machine
	tr    *trace.Buffer
	chk   *invariant.Checker
	inj   *faultinject.Injector
	reg   *telemetry.Registry // per-run registry (nil without Metrics)
	km    *kernel.Metrics     // nil without Metrics
}

func newHarness(space *mem.Space, regions [][2]int, cores, tenants int, metrics bool) harness {
	h := harness{
		space: space,
		snap:  space.Snapshot(),
		m:     new(machine.Machine),
		tr:    trace.NewBuffer(traceEvents),
		chk:   invariant.New(regions),
		inj:   faultinject.New(faultinject.Config{}),
	}
	h.inj.SetRegions(regions)
	h.inj.SetCores(cores)
	if metrics {
		h.reg, h.km = newRegistry(tenants)
	}
	return h
}

// start restores the pristine workload image and resets the worker's
// machine for one seeded run with the trace ring, injector, checker and
// telemetry attached, so a run cannot depend on which runs the worker
// executed before it.
func (h *harness) start(mc machine.Config, inject faultinject.Config) *machine.Machine {
	h.space.Restore(h.snap)
	m := h.m
	m.Reset(mc)
	h.tr.Reset()
	m.Kern.SetTracer(h.tr)

	inject.Seed = mc.Kernel.Seed ^ 0x5ca1ab1e
	inject.NumSlots = mc.PMU.NumCounters
	h.inj.Reset(inject)
	h.inj.Attach(m.Kern)

	h.chk.Reset()
	h.chk.Attach(m.Kern)

	if h.km != nil {
		h.reg.Reset()
		m.Kern.SetMetrics(h.km)
	}
	return m
}

// simulate runs m up to the step bound and records a fault, deadlock
// or livelock as the error of the run seed names.
func simulate(m *machine.Machine, seed uint64, out *runOutcome) machine.RunResult {
	res := m.Run(machine.RunLimits{MaxSteps: runSteps})
	switch {
	case res.Err != nil:
		out.Err = fmt.Sprintf("seed %#x: %v", seed, res.Err)
	case !res.AllDone:
		out.Err = fmt.Sprintf("seed %#x: run hit %d-step bound (livelock?)", seed, runSteps)
	}
	return res
}

// finish records what every run reports once its oracles have run: the
// injector's deliveries, the kernel's read-path counters, the checker's
// verdict with a few samples, and the run's telemetry block.
func (h *harness) finish(m *machine.Machine, out *runOutcome) {
	out.Injected = h.inj.Stats
	out.Folds = m.Kern.Stats.OverflowFolds
	out.CtxSwitches = m.Kern.Stats.CtxSwitches
	out.Migrations = m.Kern.Stats.Migrations
	out.ReadsCompleted = h.chk.ReadsCompleted
	for _, t := range m.Kern.Threads() {
		out.Rewinds += t.Stats.FixupRewinds
	}
	out.CheckerViolations = h.chk.Count()
	// Copied out: the checker reuses its storage on the next Reset.
	vs := h.chk.Violations()
	out.Samples = append([]invariant.Violation(nil), vs[:min(len(vs), maxSamples)]...)
	if h.reg != nil {
		var sb strings.Builder
		h.reg.WriteJSONL(&sb) // a strings.Builder write cannot fail
		out.Telemetry = sb.String()
	}
}

// TenantStats is the tenant layer's accounting — double switches,
// vCPU migrations and preemptions, the socket uncore total, and the
// summed |estimate − truth| error of the share-by-cycles attribution
// policy — per run in an outcome and summed per mix in a result. All
// zero unless the campaign runs with Tenants > 1, and omitted from the
// payload when zero.
type TenantStats struct {
	VCpuSwitches   uint64 `json:"vcpu_switches,omitempty"`
	VCpuMigrations uint64 `json:"vcpu_migrations,omitempty"`
	TenantPreempts uint64 `json:"tenant_preempts,omitempty"`
	UncoreTotal    uint64 `json:"uncore_total,omitempty"`
	UncoreAbsErr   uint64 `json:"uncore_abs_err,omitempty"`
}

// checkTenants runs the tenant attribution oracles — per-guest
// instruction conservation, no cross-tenant leakage, uncore share
// bounds — on a finished run and records its tenant accounting. A run
// without the tenant layer records nothing.
func (t *TenantStats) checkTenants(m *machine.Machine, chk *invariant.Checker) {
	accts := m.Kern.TenantAccts()
	if accts == nil {
		return
	}
	ut := m.Kern.UncoreTotal()
	chk.CheckTenants(accts, m.GroundTruthRing(pmu.EvInstructions, pmu.RingUser), ut, m.Kern.Threads())
	t.UncoreTotal = ut
	for _, a := range accts {
		if a.UncoreEst >= a.Uncore {
			t.UncoreAbsErr += a.UncoreEst - a.Uncore
		} else {
			t.UncoreAbsErr += a.Uncore - a.UncoreEst
		}
	}
	t.VCpuSwitches = m.Kern.Stats.VCpuSwitches
	t.VCpuMigrations = m.Kern.Stats.VCpuMigrations
	t.TenantPreempts = m.Kern.Stats.TenantPreemptions
}

func (t *TenantStats) add(o TenantStats) {
	t.VCpuSwitches += o.VCpuSwitches
	t.VCpuMigrations += o.VCpuMigrations
	t.TenantPreempts += o.TenantPreempts
	t.UncoreTotal += o.UncoreTotal
	t.UncoreAbsErr += o.UncoreAbsErr
}

// runOutcome is one campaign run's contribution to its mix result. Run
// folds it straight from the runner's keyed slots; a fleet job's
// payload is the same struct JSON-encoded, so a field the payload
// dropped would show up as a fleet-vs-Run difference. The soak's
// outcome embeds it.
type runOutcome struct {
	Err               string                `json:"err,omitempty"`
	Injected          faultinject.Stats     `json:"injected"`
	Rewinds           uint64                `json:"rewinds"`
	Folds             uint64                `json:"folds"`
	CtxSwitches       uint64                `json:"ctx_switches"`
	Migrations        uint64                `json:"migrations"`
	ReadsCompleted    uint64                `json:"reads_completed"`
	TornDeltas        uint64                `json:"torn_deltas"`
	CheckerViolations int                   `json:"checker_violations"`
	Samples           []invariant.Violation `json:"samples,omitempty"`
	TenantStats
	// Telemetry is the run's registry as JSONL (empty without Metrics).
	Telemetry string `json:"telemetry,omitempty"`
}

// add folds one run's outcome into the mix. Runs fold in seed order, so
// the sample cap keeps the same runs' samples at every width.
func (m *MixResult) add(o *runOutcome) {
	m.Runs++
	if o.Err != "" {
		m.RunErrors++
		m.Errs = append(m.Errs, o.Err)
	}
	m.Injected.Add(o.Injected)
	m.Rewinds += o.Rewinds
	m.Folds += o.Folds
	m.CtxSwitches += o.CtxSwitches
	m.Migrations += o.Migrations
	m.ReadsCompleted += o.ReadsCompleted
	m.TornDeltas += o.TornDeltas
	m.CheckerViolations += o.CheckerViolations
	m.Samples = append(m.Samples, o.Samples[:min(len(o.Samples), maxSamples-len(m.Samples))]...)
	m.TenantStats.add(o.TenantStats)
}

// renderTenants writes the tenant-layer table (nothing without the
// tenant layer).
func renderTenants(w io.Writer, tenants int, mixes []*MixResult) {
	if tenants <= 1 {
		return
	}
	t := tabwrite.New(
		fmt.Sprintf("Tenant layer (%d tenants): double switches and uncore attribution", tenants),
		"mix", "vcpu-switches", "vcpu-preempts", "vcpu-migrations",
		"uncore-total", "uncore-abs-err", "err-pct")
	for _, m := range mixes {
		pct := "0.00"
		if m.UncoreTotal > 0 {
			pct = fmt.Sprintf("%.2f", 100*float64(m.UncoreAbsErr)/float64(m.UncoreTotal))
		}
		t.Row(m.Name, m.VCpuSwitches, m.TenantPreempts, m.VCpuMigrations,
			m.UncoreTotal, m.UncoreAbsErr, pct)
	}
	t.Render(w)
}

// renderFooter writes the tail both reports share: when any oracle
// fired, the violation table — each mix's checker samples followed by
// the rows oracleRows adds for mix i — then one line per failed run and
// the merged telemetry block.
func renderFooter(w io.Writer, mixes []*MixResult, violations uint64, oracleRows func(d *tabwrite.Table, i int), tel *telemetry.Registry) {
	if violations > 0 {
		d := tabwrite.New("Invariant violations (samples)", "mix", "thread", "kind", "detail")
		for i, m := range mixes {
			for _, v := range m.Samples {
				d.Row(m.Name, v.TID, v.Kind, v.Detail)
			}
			oracleRows(d, i)
		}
		d.Render(w)
	}
	runs := 0
	for _, m := range mixes {
		for _, e := range m.Errs {
			fmt.Fprintf(w, "run error [%s] %s\n", m.Name, e)
		}
		runs += m.Runs
	}
	if tel != nil {
		fmt.Fprintf(w, "\nKernel telemetry (merged across %d runs)\n", runs)
		tel.Render(w)
	}
}
