package invariant

import (
	"fmt"
	"testing"

	"limitsim/internal/faultinject"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/perfevent"
	"limitsim/internal/pmu"
)

// buildGroupChaosWorkload assembles a thread body that oversubscribes
// the PMU with three two-event groups, starts a sampling profiler (a
// steady source of real overflow interrupts for the PMI-delay mixes),
// and loops over memory so every group event counts.
func buildGroupChaosWorkload(space *mem.Space) *isa.Program {
	b := isa.NewBuilder()
	for _, specs := range [][]perfevent.Spec{
		{perfevent.UserSpec(pmu.EvCycles), perfevent.UserSpec(pmu.EvInstructions)},
		{perfevent.AllRingsSpec(pmu.EvCycles), perfevent.KernelSpec(pmu.EvCycles)},
		{perfevent.UserSpec(pmu.EvLoads), perfevent.UserSpec(pmu.EvStores)},
	} {
		table := perfevent.GroupTable(space, specs)
		perfevent.EmitGroupOpen(b, table, len(specs))
	}
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, 60_000)
	b.Syscall(kernel.SysSampleStart)

	buf := space.AllocWords(8)
	b.MovImm(isa.R1, 250_000)
	b.MovImm(isa.R2, 0)
	b.MovImm(isa.R3, int64(buf))
	b.Label("loop")
	b.Store(isa.R3, 0, isa.R1)
	b.Load(isa.R4, isa.R3, 0)
	b.AddImm(isa.R1, isa.R1, -1)
	b.Br(isa.CondNE, isa.R1, isa.R2, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestCheckGroupsUnderChaos sweeps fault mixes and seeds over an
// oversubscribed group workload: rotation boundaries colliding with
// forced preemptions, delayed and spurious PMIs, migration storms,
// and asynchronous kills must never tear group enabled/running
// accounting or the frame stream.
func TestCheckGroupsUnderChaos(t *testing.T) {
	mixes := []struct {
		name string
		cfg  faultinject.Config
		kill bool
	}{
		{"preempt-storm", faultinject.Config{PreemptEvery: 400}, false},
		{"delayed-pmi", faultinject.Config{DelayPMI: true, DelayBoundaries: 5, SpuriousPMIEvery: 900}, false},
		{"migration-storm", faultinject.Config{MigrationStorm: true, PreemptEvery: 600}, false},
		{"kill-storm", faultinject.Config{KillEvery: 350_000, PreemptEvery: 500}, true},
	}
	for _, mix := range mixes {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mix.name, seed), func(t *testing.T) {
				m := machine.New(machine.Config{NumCores: 2})
				space := mem.NewSpace()
				prog := buildGroupChaosWorkload(space)
				proc := m.Kern.NewProcess(prog, space)
				m.Kern.Spawn(proc, "a", 0, seed)
				m.Kern.Spawn(proc, "b", 0, seed+100)

				cfg := mix.cfg
				cfg.Seed = seed
				inj := faultinject.New(cfg)
				inj.SetCores(2)
				inj.Attach(m.Kern)

				res := m.Run(machine.RunLimits{MaxSteps: 200_000_000})
				if !mix.kill {
					if len(res.Faults) > 0 {
						t.Fatalf("faults: %v", res.Faults)
					}
					if !res.AllDone {
						t.Fatal("run incomplete")
					}
				}
				if m.Kern.Stats.MuxRotations == 0 {
					t.Fatal("no rotations fired; the mix starved the scheduler")
				}

				c := New(nil)
				c.CheckGroups(m.Kern)
				for _, v := range c.Violations() {
					t.Errorf("violation: %v", v)
				}
			})
		}
	}
}

// buildPerfChaosWorkload assembles two thread bodies over perf
// counters, each trapping into the kernel every iteration so the
// kernel-ring and all-rings counters see work. "wide" opens six
// counters on the 4-slot PMU, so its groups rotate at every switch-in;
// halfway it closes fd 1, opens a LiMiT counter that takes fd 1 and
// evicts whichever perf group holds slot 1 (its table word comes in
// R12), opens one more perf counter late, and resets fd 0. "narrow"
// opens three counters, a fourth late, and resets fd 0: its groups fit
// the PMU and are never unloaded, so each must read exactly its truth.
func buildPerfChaosWorkload(space *mem.Space, iters int64) *isa.Program {
	buf := space.AllocWords(1)
	b := isa.NewBuilder()
	loop := func(label string) {
		b.MovImm(isa.R1, iters)
		b.MovImm(isa.R2, 0)
		b.MovImm(isa.R3, int64(buf))
		b.Label(label)
		b.Store(isa.R3, 0, isa.R1)
		b.Load(isa.R4, isa.R3, 0)
		b.Syscall(kernel.SysGetTID)
		b.AddImm(isa.R1, isa.R1, -1)
		b.Br(isa.CondNE, isa.R1, isa.R2, label)
	}
	open := func(specs ...perfevent.Spec) {
		for _, s := range specs {
			perfevent.EmitOpen(b, s, isa.R9)
		}
	}
	resetFd0 := func() {
		b.MovImm(isa.R9, 0)
		perfevent.EmitReset(b, isa.R9)
	}

	b.Label("wide")
	b.Syscall(kernel.SysLimitInit)
	open(perfevent.UserSpec(pmu.EvInstructions), perfevent.KernelSpec(pmu.EvCycles),
		perfevent.AllRingsSpec(pmu.EvCycles), perfevent.UserSpec(pmu.EvLoads),
		perfevent.AllRingsSpec(pmu.EvInstructions), perfevent.UserSpec(pmu.EvStores))
	loop("wide-a")
	b.MovImm(isa.R9, 1)
	perfevent.EmitClose(b, isa.R9)
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.Mov(isa.R2, isa.R12)
	b.Syscall(kernel.SysLimitOpen)
	open(perfevent.KernelSpec(pmu.EvInstructions))
	resetFd0()
	loop("wide-b")
	b.Halt()

	b.Label("narrow")
	open(perfevent.AllRingsSpec(pmu.EvCycles), perfevent.KernelSpec(pmu.EvInstructions),
		perfevent.UserSpec(pmu.EvLoads))
	loop("narrow-a")
	open(perfevent.AllRingsSpec(pmu.EvInstructions))
	resetFd0()
	loop("narrow-b")
	b.Halt()
	return b.MustBuild()
}

// TestCheckGroupsPerfCountersUnderChaos runs perf counters — kernel-
// ring and all-rings ones, a late open, a reset, and a LiMiT open that
// evicts one — on 3 threads over 2 cores under preemption, migration
// and kill storms. Every perf counter is a one-event group, so the
// group oracles audit it: enabled time must conserve, and a group
// never unloaded must read exactly its ground truth.
func TestCheckGroupsPerfCountersUnderChaos(t *testing.T) {
	mixes := []struct {
		name string
		cfg  faultinject.Config
		kill bool
	}{
		{"preempt-storm", faultinject.Config{PreemptEvery: 300}, false},
		{"migration-storm", faultinject.Config{MigrationStorm: true, PreemptEvery: 500}, false},
		{"kill-storm", faultinject.Config{KillEvery: 40_000, PreemptEvery: 400}, true},
	}
	for _, mix := range mixes {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mix.name, seed), func(t *testing.T) {
				m := machine.New(machine.Config{NumCores: 2})
				space := mem.NewSpace()
				prog := buildPerfChaosWorkload(space, 4_000)
				proc := m.Kern.NewProcess(prog, space)
				wide := m.Kern.Spawn(proc, "wide", prog.MustEntry("wide"), seed)
				wide.SetReg(isa.R12, space.AllocWords(1))
				m.Kern.Spawn(proc, "narrow", prog.MustEntry("narrow"), seed+100)
				m.Kern.Spawn(proc, "narrow", prog.MustEntry("narrow"), seed+200)

				cfg := mix.cfg
				cfg.Seed = seed
				inj := faultinject.New(cfg)
				inj.SetCores(2)
				inj.Attach(m.Kern)

				res := m.Run(machine.RunLimits{MaxSteps: 50_000_000})
				if !mix.kill && (len(res.Faults) > 0 || !res.AllDone) {
					t.Fatalf("run failed: %+v", res)
				}

				c := New(nil)
				c.CheckGroups(m.Kern)
				for _, v := range c.Violations() {
					t.Errorf("violation: %v", v)
				}

				// The oracles must have had both regimes to judge.
				var exact, muxed int
				for _, th := range m.Kern.Threads() {
					for _, tc := range th.Counters() {
						switch g := tc.Group(); {
						case g == nil || g.EnabledCycles == 0:
						case g.Multiplexed():
							muxed++
						default:
							exact++
						}
					}
				}
				if exact == 0 || (!mix.kill && muxed == 0) {
					t.Fatalf("perf groups: %d exact, %d multiplexed; the run did not exercise the oracles", exact, muxed)
				}
			})
		}
	}
}

// TestCheckGroupsSyntheticTear proves the oracle detects what it
// claims to: frames fabricated with regressing samples and a group
// whose enabled time disagrees with scheduled time must be reported.
func TestCheckGroupsSyntheticTear(t *testing.T) {
	// Real run first, then corrupt the thread's group state in place.
	m := machine.New(machine.Config{NumCores: 1})
	space := mem.NewSpace()
	prog := buildGroupChaosWorkload(space)
	proc := m.Kern.NewProcess(prog, space)
	th := m.Kern.Spawn(proc, "w", 0, 1)
	res := m.Run(machine.RunLimits{MaxSteps: 200_000_000})
	if !res.AllDone || len(res.Faults) > 0 {
		t.Fatalf("setup run failed: %+v", res)
	}

	c := New(nil)
	c.CheckGroups(m.Kern)
	if c.Count() != 0 {
		t.Fatalf("clean run reported violations: %v", c.Violations())
	}

	g := th.Groups()[0]
	g.EnabledCycles++ // conservation breach
	c2 := New(nil)
	c2.CheckGroups(m.Kern)
	if countKind(c2, KindGroupConserve) == 0 {
		t.Error("oracle missed a conservation breach")
	}
	g.EnabledCycles--

	g.RunningCycles = g.EnabledCycles + 1 // running > enabled
	c3 := New(nil)
	c3.CheckGroups(m.Kern)
	if countKind(c3, KindGroupTear) == 0 {
		t.Error("oracle missed running > enabled")
	}
}
