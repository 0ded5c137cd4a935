package invariant

import (
	"strings"
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// buildLoop emits a single-thread measured read loop and returns the
// pieces a test needs. With narrow counter writes the loop folds
// constantly, which is what the checker's generation oracle watches.
func buildLoop(iters, computeK int) (*isa.Program, *mem.Space, [][2]int, uint64, uint64) {
	space := mem.NewSpace()
	table := limit.AllocTable(space, 1)
	b := isa.NewBuilder()
	e := limit.NewEmitter(b, limit.ModeStock, table)
	ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))
	buf := space.AllocWords(uint64(iters))
	e.EmitInit()
	b.MovImm(isa.R12, int64(buf))
	b.MovImm(isa.R8, 0)
	b.Label("loop")
	e.EmitMeasureStart(isa.R4, isa.R5, ctr)
	b.Compute(int64(computeK))
	e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
	b.Shl(isa.R13, isa.R8, 3)
	b.Add(isa.R13, isa.R13, isa.R12)
	b.Store(isa.R13, 0, isa.R6)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, int64(iters))
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	e.EmitFinish()
	r := e.Regions()[0]
	want := uint64(computeK) + uint64(r[1]-r[0])
	return b.MustBuild(), space, e.Regions(), buf, want
}

// TestCheckerSilentOnCleanRun attaches the checker to a contended,
// frequently folding run with the fixup active and requires complete
// silence plus a satisfied end-of-run audit.
func TestCheckerSilentOnCleanRun(t *testing.T) {
	prog, space, regions, _, _ := buildLoop(200, 25)
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 9
	kcfg := kernel.DefaultConfig()
	kcfg.Quantum = 2_000 // heavy natural preemption
	m := machine.New(machine.Config{NumCores: 1, PMU: feats, Kernel: kcfg})

	chk := New(regions)
	chk.Attach(m.Kern)

	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "clean", 0, 11)
	m.Kern.Spawn(proc, "rival", 0, 12)

	res := m.Run(machine.RunLimits{MaxSteps: 10_000_000})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	chk.Finalize(proc, m.Kern.Threads(), 0)
	if chk.Count() != 0 {
		t.Fatalf("clean run produced %d violations: %v", chk.Count(), chk.Violations())
	}
	if chk.ReadsCompleted == 0 {
		t.Fatal("checker observed no completed reads")
	}
}

// TestCheckerFlagsBadRewind drives the rewind probe directly with a
// target that is not the region start and expects the bad-rewind kind.
func TestCheckerFlagsBadRewind(t *testing.T) {
	prog, space, regions, _, _ := buildLoop(8, 10)
	m := machine.New(machine.Config{NumCores: 1})
	proc := m.Kern.NewProcess(prog, space)
	th := m.Kern.Spawn(proc, "bad", 0, 1)

	chk := New(regions)
	p := chk.Probes()
	r := regions[0]
	p.Rewind(th, r[0]+1, r[0]+2) // rewind inside the region but not to its start
	if chk.Count() != 1 {
		t.Fatalf("want 1 violation, got %d", chk.Count())
	}
	if v := chk.Violations()[0]; v.Kind != KindBadRewind {
		t.Errorf("want %s, got %v", KindBadRewind, v)
	}
	// A correct rewind must stay silent.
	p.Rewind(th, r[0]+1, r[0])
	if chk.Count() != 1 {
		t.Errorf("correct rewind was flagged: %v", chk.Violations())
	}
}

// TestCheckerFlagsNonMonotone completes a run, then rolls the virtual
// counter's table word backwards and asks for another monotonicity
// check — the checker must notice the regression.
func TestCheckerFlagsNonMonotone(t *testing.T) {
	prog, space, regions, _, _ := buildLoop(100, 10)
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 9
	m := machine.New(machine.Config{NumCores: 1, PMU: feats})

	chk := New(regions)
	chk.Attach(m.Kern)

	proc := m.Kern.NewProcess(prog, space)
	th := m.Kern.Spawn(proc, "mono", 0, 3)
	if res := m.Run(machine.RunLimits{MaxSteps: 5_000_000}); res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}

	tc := th.Counters()[0]
	chk.Probes().SwitchOut(0, th) // records the current floor
	cur := proc.Mem.Read64(tc.TableAddr)
	if cur == 0 {
		t.Fatal("no folds in run; the workload must be long enough to fold")
	}
	proc.Mem.Write64(tc.TableAddr, cur-1)
	chk.Probes().SwitchOut(0, th)
	found := false
	for _, v := range chk.Violations() {
		if v.Kind == KindNonMonotone && strings.Contains(v.Detail, "went backwards") {
			found = true
		}
	}
	if !found {
		t.Errorf("regressed counter not flagged: %v", chk.Violations())
	}
}

// TestFinalizeFlagsFoldLoss corrupts the fold-conservation ledger by
// adding an extra chunk to the table word behind the kernel's back; the
// end-of-run audit must report the discrepancy.
func TestFinalizeFlagsFoldLoss(t *testing.T) {
	prog, space, regions, _, _ := buildLoop(16, 10)
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 9
	m := machine.New(machine.Config{NumCores: 1, PMU: feats})

	chk := New(regions)
	chk.Attach(m.Kern)

	proc := m.Kern.NewProcess(prog, space)
	th := m.Kern.Spawn(proc, "loss", 0, 5)
	if res := m.Run(machine.RunLimits{MaxSteps: 5_000_000}); res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}

	tc := th.Counters()[0]
	proc.Mem.Add64(tc.TableAddr, 512) // phantom fold the kernel never performed
	chk.Finalize(proc, m.Kern.Threads(), 0)
	found := false
	for _, v := range chk.Violations() {
		if v.Kind == KindFoldLoss {
			found = true
		}
	}
	if !found {
		t.Errorf("phantom fold not flagged: %v", chk.Violations())
	}
}

// TestProbesDoNotAllocate pins the checker's per-boundary cost: once a
// thread has been seen, arming a read, stepping through it,
// completing it, rewinding, folding and switching out allocate
// nothing.
func TestProbesDoNotAllocate(t *testing.T) {
	prog, space, regions, _, _ := buildLoop(8, 10)
	m := machine.New(machine.Config{NumCores: 1})
	proc := m.Kern.NewProcess(prog, space)
	th := m.Kern.Spawn(proc, "allocs", 0, 1)
	if res := m.Run(machine.RunLimits{MaxSteps: 1_000_000}); res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}

	chk := New(regions)
	p := chk.Probes()
	r := regions[0]
	tc := th.Counters()[0]
	read := func() {
		p.Fold(0, th, tc, 0)
		for pc := r[0]; pc < r[1]; pc++ {
			p.Step(0, th, pc, pc+1) // arms at the region's first instruction, completes at its end
		}
		p.Step(0, th, r[0], r[0]+1)
		p.Rewind(th, r[0]+1, r[0])
		p.SwitchOut(0, th)
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("probes allocated %.1f times per read, want 0", allocs)
	}
	if chk.ReadsCompleted != 102 || chk.Count() != 0 {
		t.Errorf("completed %d reads with %d violations, want 102 and 0: %v", chk.ReadsCompleted, chk.Count(), chk.Violations())
	}
}
