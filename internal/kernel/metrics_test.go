package kernel_test

import (
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/perfevent"
	"limitsim/internal/pmu"
	"limitsim/internal/telemetry"
)

// kernelTotals reads, through the kernel's public surface, the count
// each published kernel counter must carry.
func kernelTotals(k *kernel.Kernel) map[string]uint64 {
	var signals, rewinds uint64
	for _, t := range k.Threads() {
		signals += t.Stats.Signals
		rewinds += t.Stats.FixupRewinds
	}
	s := k.Stats
	return map[string]uint64{
		"kern.syscalls":          s.Syscalls,
		"kern.signals.delivered": signals,
		"kern.pmi.count":         s.PMIs,
		"kern.folds":             s.OverflowFolds,
		"kern.rewinds.taken":     rewinds,
		"kern.rewinds.avoided":   s.RewindsAvoided,
		"kern.limitopen.again":   s.LimitOpenAgain,
		"kern.opens.degraded":    s.DegradedOpens,
		"kern.clones.degraded":   s.DegradedClones,
		"kern.mux.rotations":     s.MuxRotations,
		"kern.mux.frames":        uint64(len(k.Frames())),
		"pmu.slots.denied":       k.Resources().SlotDenials,
	}
}

// checkPublished fails unless every counter and gauge registered on
// reg equals the kernel's own count, and reports which are nonzero (a
// gauge by its peak).
func checkPublished(t *testing.T, reg *telemetry.Registry, k *kernel.Kernel) map[string]bool {
	t.Helper()
	nonzero := map[string]bool{}
	totals := kernelTotals(k)
	counters, gauges, _ := reg.Names()
	for _, name := range counters {
		want, ok := totals[name]
		if !ok {
			t.Fatalf("counter %s has no kernel count to check against", name)
		}
		if got := reg.LookupCounter(name).Value(); got != want {
			t.Errorf("%s = %d, kernel counted %d", name, got, want)
		}
		nonzero[name] = want != 0
	}
	rs := k.Resources()
	ledgers := map[string][2]int{
		"pmu.slots.occupancy":      {rs.SlotsInUse, rs.SlotsPeak},
		"pmu.tablewords.occupancy": {rs.TableWordsInUse, rs.TableWordsPeak},
	}
	for _, name := range gauges {
		l, ok := ledgers[name]
		if !ok {
			t.Fatalf("gauge %s has no ledger to check against", name)
		}
		if g := reg.LookupGauge(name); g.Value() != int64(l[0]) || g.Peak() != int64(l[1]) {
			t.Errorf("%s = %d (peak %d), ledger holds %d (peak %d)", name, g.Value(), g.Peak(), l[0], l[1])
		}
		nonzero[name] = l[1] != 0
	}
	return nonzero
}

// signalCase runs a LiMiT read loop in SignalUser mode at a narrow
// counter width: every overflow raises a PMI whose SIGPMU the
// emitter's handler folds. Deliveries are held until the thread sits
// inside a read-critical region, so each one also rewinds the PC.
func signalCase() *machine.Machine {
	kcfg := kernel.DefaultConfig()
	kcfg.LimitOverflow = kernel.SignalUser
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 10
	m := machine.New(machine.Config{NumCores: 1, PMU: feats, Kernel: kcfg})
	space := mem.NewSpace()
	b := isa.NewBuilder()
	e := limit.NewEmitter(b, limit.ModeStock, limit.AllocTable(space, 1))
	ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
	e.EnableOverflowSignalHandler()
	e.EmitInit()
	b.MovImm(isa.R8, 0)
	b.Label("loop")
	e.EmitMeasureStart(isa.R4, isa.R5, ctr)
	b.Compute(200)
	e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, 40)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	e.EmitFinish()
	regions := e.Regions()
	m.Kern.SetChaos(&kernel.Chaos{
		HoldSignal: func(_ int, th *kernel.Thread) bool {
			for _, r := range regions {
				if th.Ctx.PC > r[0] && th.Ctx.PC < r[1] {
					return false
				}
			}
			return true
		},
	})
	m.Kern.Spawn(m.Kern.NewProcess(b.MustBuild(), space), "sig", 0, 1)
	return m
}

// muxCase opens three two-event groups on a four-counter PMU, so the
// group scheduler rotates them and emits a frame per rotation.
func muxCase() *machine.Machine {
	m := newMachine(1)
	space := mem.NewSpace()
	two := func(a, b pmu.Event) []perfevent.Spec {
		return []perfevent.Spec{perfevent.UserSpec(a), perfevent.UserSpec(b)}
	}
	prog := groupProg(space, 200_000,
		two(pmu.EvCycles, pmu.EvInstructions),
		two(pmu.EvBranches, pmu.EvBranchMiss),
		two(pmu.EvLoads, pmu.EvStores))
	m.Kern.Spawn(m.Kern.NewProcess(prog, space), "mux", 0, 1)
	return m
}

// slotsCase fills a two-slot ledger: the parent's LiMiT counter takes
// one slot and a first clone's inherited copy (backed by a
// kernel-allocated table word) the other. A second LiMiT open is then
// denied with RetAgain, a perf open arrives flagged as a degraded
// fallback, and a second clone's inherited counter degrades to an
// estimate.
func slotsCase() *machine.Machine {
	kcfg := kernel.DefaultConfig()
	kcfg.VirtSlotCapacity = 2
	m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})
	space := mem.NewSpace()
	b := isa.NewBuilder()
	limitOpen := func() {
		b.MovImm(isa.R0, int64(pmu.EvInstructions))
		b.MovImm(isa.R1, int64(kernel.FlagUser))
		b.MovImm(isa.R2, int64(space.AllocWords(1)))
		b.Syscall(kernel.SysLimitOpen)
	}
	clone := func(tid isa.Reg) {
		b.MovLabel(isa.R0, "child")
		b.MovImm(isa.R1, 0)
		b.MovImm(isa.R2, 9)
		b.MovImm(isa.R3, 0)
		b.Syscall(kernel.SysClone)
		b.Mov(tid, isa.R0)
	}
	b.Syscall(kernel.SysLimitInit)
	limitOpen()
	clone(isa.R10)
	limitOpen()
	b.MovImm(isa.R0, int64(pmu.EvCycles))
	b.MovImm(isa.R1, int64(kernel.FlagUser|kernel.FlagEstimated))
	b.Syscall(kernel.SysPerfOpen)
	clone(isa.R11)
	for _, tid := range []isa.Reg{isa.R10, isa.R11} {
		b.Mov(isa.R0, tid)
		b.Syscall(kernel.SysJoin)
	}
	b.Halt()
	b.Label("child")
	b.Compute(200)
	b.Syscall(kernel.SysExit)
	m.Kern.Spawn(m.Kern.NewProcess(b.MustBuild(), space), "parent", 0, 1)
	return m
}

// TestPublishedCountsReachRegistry: with metrics attached, every
// published counter and gauge equals the kernel's own count when a
// run ends, and every one is nonzero in some case — so a count that
// stops being kept, or stops being published, fails here even where
// the goldens pin it at zero.
func TestPublishedCountsReachRegistry(t *testing.T) {
	covered := map[string]bool{}
	for _, build := range []func() *machine.Machine{signalCase, muxCase, slotsCase} {
		m := build()
		reg := telemetry.NewRegistry()
		m.Kern.SetMetrics(kernel.NewMetrics(reg, 0))
		run(t, m)
		for name, nz := range checkPublished(t, reg, m.Kern) {
			covered[name] = covered[name] || nz
		}
	}
	for name, nz := range covered {
		if !nz {
			t.Errorf("no case drives %s above zero", name)
		}
	}
}

// TestPublishAcrossRunSegments runs one case in two step-bounded
// segments on the same kernel: each publish moves the counters to the
// kernel's totals, so the second does not add the first segment's
// counts again.
func TestPublishAcrossRunSegments(t *testing.T) {
	m := muxCase()
	reg := telemetry.NewRegistry()
	m.Kern.SetMetrics(kernel.NewMetrics(reg, 0))
	if res := m.Run(machine.RunLimits{MaxSteps: 150_000}); res.AllDone || len(res.Faults) > 0 {
		t.Fatalf("first segment: %v", res)
	}
	first := checkPublished(t, reg, m.Kern)
	if !first["kern.syscalls"] || !first["kern.mux.rotations"] {
		t.Fatalf("first segment published nothing to double count: %v", first)
	}
	run(t, m)
	checkPublished(t, reg, m.Kern)
}
