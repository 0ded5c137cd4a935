package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
	"limitsim/internal/telemetry"
)

// Self-measurement: LiMiT measuring LiMiT. The paper's motivating
// table compares counter access costs by measuring each path with an
// external harness; this experiment closes the loop by using LiMiT's
// own read sequence as the measuring instrument. A single thread opens
// an all-rings cycle counter and brackets each probe — an empty region,
// a calibration compute block, a trivial syscall, a perf-style counter
// read, a yield round trip — with EmitMeasureStart/EmitMeasureEnd,
// logging every delta to the kernel for host-side aggregation. Because
// the counter is virtualized, descheduled time stays out of the deltas
// and the syscall probes report pure kernel-path cost.
//
// The run also carries the kernel telemetry layer, so the same paths
// are measured twice and independently: from the inside by LiMiT's
// instruction stream, and from the outside by the kernel's own
// histograms. The report renders both; agreement is the cross-check.

// SelfProbe is one probe's aggregated LiMiT measurements.
type SelfProbe struct {
	Name string
	N    int
	Min  uint64
	Max  uint64
	Mean float64
	// Net is Mean minus the null probe's mean — the probe body's cost
	// with the read sequence's own contribution removed.
	Net float64
	// Static is the statically configured kernel cost of the probe's
	// syscall path (0 when the probe has no fixed kernel cost).
	Static uint64
}

// SelfResult is the self-measurement experiment's outcome.
type SelfResult struct {
	Iters  int
	Probes []SelfProbe
	// Telemetry is the kernel's own metrics for the same run — the
	// outside view of the paths LiMiT measured from the inside.
	Telemetry *telemetry.Registry
}

// RunSelfMeasure executes the self-measurement program and aggregates
// the logged deltas.
func RunSelfMeasure(s Scale) (*SelfResult, error) {
	iters := s.iters(2_000)
	costs := kernel.DefaultConfig().Costs

	type probeSpec struct {
		name   string
		static uint64
		body   func(b *isa.Builder)
	}
	specs := []probeSpec{
		{"null (read sequence only)", 0, func(b *isa.Builder) {}},
		{"compute-100 (calibration)", 0, func(b *isa.Builder) { b.Compute(100) }},
		{"gettid syscall", costs.SyscallEntry + costs.Simple + costs.SyscallExit,
			func(b *isa.Builder) { b.Syscall(kernel.SysGetTID) }},
		{"perf counter read", costs.SyscallEntry + costs.PerfRead + costs.SyscallExit,
			func(b *isa.Builder) {
				b.Mov(isa.R0, isa.R10)
				b.Syscall(kernel.SysPerfRead)
			}},
		{"yield round trip", 0, func(b *isa.Builder) { b.Syscall(kernel.SysYield) }},
	}

	space := mem.NewSpace()
	b := isa.NewBuilder()
	table := limit.AllocTable(space, 1)
	e := limit.NewEmitter(b, limit.ModeStock, table)
	ctr := e.AddCounter(limit.AllRingsCounter(pmu.EvCycles))
	e.EmitInit()
	// A perf-style counter held open for the whole run gives the
	// perf-read probe its target fd (kept in R10, which no probe
	// clobbers).
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser|kernel.FlagKernel))
	b.Syscall(kernel.SysPerfOpen)
	b.Mov(isa.R10, isa.R0)
	for pi, sp := range specs {
		b.MovImm(isa.R8, 0)
		loop := fmt.Sprintf("self.p%d", pi)
		b.Label(loop)
		e.EmitMeasureStart(isa.R4, isa.R5, ctr)
		sp.body(b)
		e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
		b.MovImm(isa.R0, int64(pi))
		b.Mov(isa.R1, isa.R6)
		b.Syscall(kernel.SysLogValue)
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, int64(iters))
		b.Br(isa.CondLT, isa.R8, isa.R9, loop)
	}
	b.Mov(isa.R0, isa.R10)
	b.Syscall(kernel.SysPerfClose)
	b.Halt()
	e.EmitFinish()
	prog := b.MustBuild()

	reg := telemetry.NewRegistry()
	m := machine.New(machine.Config{NumCores: 1})
	m.Kern.SetMetrics(kernel.NewMetrics(reg, 0))
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "self", 0, 7)
	res := m.Run(machine.RunLimits{MaxSteps: runSteps})
	if res.Err != nil {
		return nil, fmt.Errorf("selfmeasure run: %w", res.Err)
	}

	sums := make([]uint64, len(specs))
	mins := make([]uint64, len(specs))
	maxs := make([]uint64, len(specs))
	ns := make([]int, len(specs))
	for _, le := range m.Kern.Logs() {
		pi := int(le.Tag)
		if pi < 0 || pi >= len(specs) {
			continue
		}
		v := le.Value
		if ns[pi] == 0 || v < mins[pi] {
			mins[pi] = v
		}
		if v > maxs[pi] {
			maxs[pi] = v
		}
		sums[pi] += v
		ns[pi]++
	}

	r := &SelfResult{Iters: iters, Telemetry: reg}
	nullMean := 0.0
	if ns[0] > 0 {
		nullMean = float64(sums[0]) / float64(ns[0])
	}
	for pi, sp := range specs {
		p := SelfProbe{Name: sp.name, N: ns[pi], Min: mins[pi], Max: maxs[pi], Static: sp.static}
		if p.N > 0 {
			p.Mean = float64(sums[pi]) / float64(p.N)
			if net := p.Mean - nullMean; net > 0 && pi > 0 {
				p.Net = net
			}
		}
		r.Probes = append(r.Probes, p)
	}
	return r, nil
}

// Probe returns the named probe's row.
func (r *SelfResult) Probe(name string) (SelfProbe, bool) {
	for _, p := range r.Probes {
		if p.Name == name {
			return p, true
		}
	}
	return SelfProbe{}, false
}

// Render writes the probe table and the kernel's outside view of the
// same run.
func (r *SelfResult) Render(w io.Writer) {
	t := tabwrite.New(
		fmt.Sprintf("Self-measurement: LiMiT measuring its own substrate (%d reads/probe, cycles)", r.Iters),
		"probe", "n", "min", "mean", "max", "net of read", "static cost")
	for _, p := range r.Probes {
		net, static := "-", "-"
		if p.Net > 0 {
			net = fmt.Sprintf("%.0f", p.Net)
		}
		if p.Static > 0 {
			static = fmt.Sprintf("%d", p.Static)
		}
		t.Row(p.Name, p.N, p.Min, fmt.Sprintf("%.1f", p.Mean), p.Max, net, static)
	}
	t.Render(w)

	// The outside view: the kernel's telemetry for the paths the
	// probes crossed. Syscall counts include the per-iteration
	// SysLogValue bookkeeping; the switch histograms are the kernel's
	// own cost accounting for the yield probe's round trips.
	k := tabwrite.New("Kernel telemetry cross-check (same run, outside view)",
		"metric", "value")
	if c := r.Telemetry.LookupCounter("kern.syscalls"); c != nil {
		k.Row("syscalls handled", c.Value())
	}
	for _, name := range []string{"kern.switch.out.cycles", "kern.switch.in.cycles"} {
		if h := r.Telemetry.LookupHistogram(name); h != nil && h.Count() > 0 {
			k.Row(name+" mean", fmt.Sprintf("%.1f", h.Mean()))
		}
	}
	if c := r.Telemetry.LookupCounter("kern.rewinds.taken"); c != nil {
		k.Row("fixup rewinds taken", c.Value())
	}
	if c := r.Telemetry.LookupCounter("kern.rewinds.avoided"); c != nil {
		k.Row("switches w/o rewind", c.Value())
	}
	k.Render(w)
}
