package faultinject

import (
	"testing"

	"limitsim/internal/kernel"
)

// The injector keeps per-thread and per-core state (region budgets,
// signal holds, withheld PMI bits) that it touches at every instruction
// boundary. These tests pin that state's semantics through the hook
// surface the kernel calls, independent of how it is stored.

// stateRegion is the read-critical range the state tests preempt in.
var stateRegion = [2]int{10, 20}

func newStateInjector(cfg Config) (*Injector, *kernel.Chaos) {
	inj := New(cfg)
	inj.SetRegions([][2]int{stateRegion})
	return inj, inj.Hooks()
}

// at places t at pc, as a retired instruction would.
func at(t *kernel.Thread, pc int) *kernel.Thread {
	t.Ctx.PC = pc
	return t
}

// parked counts forced preemptions over n boundaries with t parked
// inside the region.
func parked(hook func(int, *kernel.Thread) bool, t *kernel.Thread, n int) int {
	got := 0
	for i := 0; i < n; i++ {
		if hook(0, at(t, stateRegion[0]+i%(stateRegion[1]-stateRegion[0]))) {
			got++
		}
	}
	return got
}

func TestRegionBudgetSemantics(t *testing.T) {
	for _, budget := range []int{1, 3, 8} {
		for _, tid := range []int{0, 1, 7, 300} {
			_, c := newStateInjector(Config{PreemptInRegions: true, RegionBudget: budget})
			th := &kernel.Thread{ID: tid}

			// A thread never seen before gets exactly the budget.
			if got := parked(c.PreemptAfter, th, 3*budget+5); got != budget {
				t.Fatalf("budget %d tid %d: %d forced preemptions on first pass, want %d", budget, tid, got, budget)
			}
			// One boundary outside refills it.
			if c.PreemptAfter(0, at(th, stateRegion[1])) {
				t.Fatalf("budget %d tid %d: preempted outside the region with PreemptEvery 0", budget, tid)
			}
			if got := parked(c.PreemptAfter, th, 3*budget+5); got != budget {
				t.Fatalf("budget %d tid %d: %d forced preemptions after refill, want %d", budget, tid, got, budget)
			}
			// Another thread's budget is its own.
			other := &kernel.Thread{ID: tid + 1}
			if got := parked(c.PreemptAfter, other, 2*budget); got != budget {
				t.Fatalf("budget %d tid %d: sibling got %d forced preemptions, want %d", budget, tid, got, budget)
			}
		}
	}
}

func TestRegionBudgetDefaultsAndDisabled(t *testing.T) {
	_, c := newStateInjector(Config{PreemptInRegions: true})
	if got := parked(c.PreemptAfter, &kernel.Thread{ID: 2}, 40); got != 8 {
		t.Errorf("default budget: %d forced preemptions, want 8", got)
	}
	_, c = newStateInjector(Config{})
	if got := parked(c.PreemptAfter, &kernel.Thread{ID: 2}, 40); got != 0 {
		t.Errorf("PreemptInRegions off: %d forced preemptions, want 0", got)
	}
}

func TestVCpuBudgetIndependentOfThreadBudget(t *testing.T) {
	const budget = 4
	_, c := newStateInjector(Config{PreemptInRegions: true, VCpuPreemptInRegions: true, RegionBudget: budget})
	th := &kernel.Thread{ID: 5}

	// Spend the thread budget; the vCPU budget is untouched.
	if got := parked(c.PreemptAfter, th, 20); got != budget {
		t.Fatalf("thread budget: %d, want %d", got, budget)
	}
	if got := parked(c.VCpuPreemptAfter, th, 20); got != budget {
		t.Fatalf("vCPU budget after the thread budget ran dry: %d, want %d", got, budget)
	}
	// Refilling one (a boundary outside seen by one hook) leaves the
	// other spent.
	c.VCpuPreemptAfter(0, at(th, stateRegion[1]))
	if got := parked(c.PreemptAfter, th, 20); got != 0 {
		t.Fatalf("vCPU refill refilled the thread budget: %d", got)
	}
	if got := parked(c.VCpuPreemptAfter, th, 20); got != budget {
		t.Fatalf("vCPU budget after its refill: %d, want %d", got, budget)
	}
	c.PreemptAfter(0, at(th, stateRegion[1]))
	if got := parked(c.VCpuPreemptAfter, th, 20); got != 0 {
		t.Fatalf("thread refill refilled the vCPU budget: %d", got)
	}
	if got := parked(c.PreemptAfter, th, 20); got != budget {
		t.Fatalf("thread budget after its refill: %d, want %d", got, budget)
	}
}

func TestSignalHoldWindow(t *testing.T) {
	for _, delay := range []int{1, 2, 5} {
		for _, tid := range []int{0, 3, 64} {
			inj, c := newStateInjector(Config{SignalDelayBoundaries: delay})
			th := &kernel.Thread{ID: tid}
			for round := 0; round < 3; round++ {
				for i := 0; i < delay; i++ {
					if !c.HoldSignal(0, th) {
						t.Fatalf("delay %d tid %d round %d: delivered at boundary %d", delay, tid, round, i)
					}
				}
				if c.HoldSignal(0, th) {
					t.Fatalf("delay %d tid %d round %d: still held after %d boundaries", delay, tid, round, delay)
				}
			}
			if want := uint64(3 * delay); inj.Stats.HeldSignals != want {
				t.Errorf("delay %d tid %d: HeldSignals %d, want %d", delay, tid, inj.Stats.HeldSignals, want)
			}
		}
	}
	// Holds are per thread.
	_, c := newStateInjector(Config{SignalDelayBoundaries: 2})
	a, b := &kernel.Thread{ID: 1}, &kernel.Thread{ID: 2}
	c.HoldSignal(0, a)
	c.HoldSignal(0, a)
	if !c.HoldSignal(0, b) {
		t.Error("a second thread's first boundary was not held")
	}
	if c.HoldSignal(0, a) {
		t.Error("the first thread's window was extended by the second's")
	}
}

func TestDelayedPMIStashPerCore(t *testing.T) {
	_, c := newStateInjector(Config{DelayPMI: true, DelayBoundaries: 3})
	th := &kernel.Thread{ID: 1}
	if got := c.FilterPMI(2, th, 0b01); got != 0 {
		t.Fatalf("core 2: mask %#b serviced immediately", got)
	}
	if got := c.FilterPMI(0, th, 0b10); got != 0 {
		t.Fatalf("core 0: mask %#b serviced immediately", got)
	}
	if got := c.FilterPMI(2, th, 0); got != 0 {
		t.Fatalf("core 2: released %#b after 2 boundaries", got)
	}
	if got := c.FilterPMI(2, th, 0); got != 0b01 {
		t.Fatalf("core 2: released %#b after 3 boundaries, want 0b01", got)
	}
	if got := c.DrainPMI(0, th); got != 0b10 {
		t.Fatalf("core 0: drained %#b, want 0b10", got)
	}
	if got := c.DrainPMI(0, th); got != 0 {
		t.Fatalf("core 0: drained %#b twice", got)
	}
	if got := c.DrainPMI(5, th); got != 0 {
		t.Fatalf("core 5 (never seen): drained %#b", got)
	}
}

func TestResetClearsPerThreadState(t *testing.T) {
	cfg := Config{
		PreemptInRegions:      true,
		VCpuPreemptInRegions:  true,
		RegionBudget:          2,
		SignalDelayBoundaries: 3,
		DelayPMI:              true,
	}
	inj, c := newStateInjector(cfg)
	th := &kernel.Thread{ID: 9}
	parked(c.PreemptAfter, th, 10)
	parked(c.VCpuPreemptAfter, th, 10)
	c.HoldSignal(0, th)
	c.HoldSignal(0, th)
	c.FilterPMI(1, th, 0b100)

	inj.Reset(cfg)
	c = inj.Hooks()
	if got := parked(c.PreemptAfter, th, 10); got != 2 {
		t.Errorf("thread budget after Reset: %d, want a full 2", got)
	}
	if got := parked(c.VCpuPreemptAfter, th, 10); got != 2 {
		t.Errorf("vCPU budget after Reset: %d, want a full 2", got)
	}
	for i := 0; i < 3; i++ {
		if !c.HoldSignal(0, th) {
			t.Fatalf("hold window after Reset ended at boundary %d, want a fresh 3", i)
		}
	}
	if got := c.DrainPMI(1, th); got != 0 {
		t.Errorf("withheld PMI bits %#b survived Reset", got)
	}
	if inj.Stats.ForcedPreemptions != 2 || inj.Stats.VCpuPreemptions != 2 || inj.Stats.HeldSignals != 3 {
		t.Errorf("stats after Reset count only post-Reset faults: %+v", inj.Stats)
	}
}

// TestBoundaryHooksDoNotAllocate pins the per-boundary cost: once the
// injector has seen a thread (and a core), every hook it installs runs
// without allocating, inside and outside regions.
func TestBoundaryHooksDoNotAllocate(t *testing.T) {
	inj, c := newStateInjector(Config{
		Seed:                  3,
		PreemptInRegions:      true,
		PreemptEvery:          7,
		SpuriousPMIEvery:      5,
		DelayPMI:              true,
		MigrationStorm:        true,
		SignalDelayBoundaries: 2,
		FlushEvery:            11,
		KillEvery:             13,
		CloneEvery:            17,
		VCpuPreemptInRegions:  true,
		VCpuPreemptEvery:      19,
	})
	inj.SetCores(4)
	th := &kernel.Thread{ID: 12}
	boundary := func() {
		for pc := stateRegion[0] - 2; pc < stateRegion[1]+2; pc++ {
			at(th, pc)
			core := pc & 3
			c.FilterPMI(core, th, uint64(pc&1))
			c.FlushAfter(core, th)
			c.CloneAfter(core, th)
			c.KillAfter(core, th)
			c.VCpuPreemptAfter(core, th)
			c.PreemptAfter(core, th)
			c.HoldSignal(core, th)
			c.Place(th, core)
			c.DrainPMI(core, th)
		}
	}
	boundary()
	if allocs := testing.AllocsPerRun(50, boundary); allocs != 0 {
		t.Errorf("boundary hooks allocated %.1f times per pass, want 0", allocs)
	}
	if inj.Stats.Total() == 0 {
		t.Error("the hooks injected nothing")
	}
}
