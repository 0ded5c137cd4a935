package machine_test

import (
	"reflect"
	"testing"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/tls"
	"limitsim/internal/trace"
	"limitsim/internal/workloads"
)

// The burst path (kernel.RunCore's loop, driven by machine.Run's
// horizon and cached pick) must be observationally identical to
// stepping one instruction per global pick. singleStep below is that
// reference: machine.Run's pick with every cached view dropped and
// every call a one-instruction RunCore. Each case runs once through
// machine.Run and once through singleStep, and every observable of the
// two runs — the attached injector's and checker's state included —
// must match.

// burstObs is everything a run leaves behind that a burst could get
// wrong.
type burstObs struct {
	Res     machine.RunResult
	Hooks   any // the attached hooks' own state (nil when none)
	Stats   kernel.Stats
	Cores   []coreObs
	Threads []threadObs
	Samples []kernel.Sample
	Logs    []kernel.LogEntry
	Frames  []kernel.Frame
	Trace   []trace.Event
	Mem     []uint64
}

type coreObs struct {
	Now, Retired uint64
	Truth        [pmu.NumEvents]uint64
}

type threadObs struct {
	ID       int
	State    kernel.ThreadState
	PC       int
	Regs     [isa.NumRegs]uint64
	Stats    kernel.ThreadStats
	Counters [][3]uint64 // Saved, Overflows, perf-group Estimate(0)
	Groups   [][]uint64  // per SysGroupOpen group: Estimate(i) per event
}

// runLimit bounds both runs of every case.
const runLimit = 200_000_000

// singleStep runs m to completion one instruction per pick: the core
// with the smallest next-action time (lowest index on ties) after
// waking the sleepers it has reached, recomputed from the kernel
// before every instruction. With no horizon and no cached view there
// is nothing for a burst's bookkeeping to get wrong.
func singleStep(m *machine.Machine) machine.RunResult {
	const never = ^uint64(0)
	var res machine.RunResult
	k := m.Kern
	for res.Steps < runLimit && !k.AllDone() {
		best, bestT := -1, never
		for i := range m.Cores {
			if at, ok := k.NextActionTime(i); ok && at < bestT {
				best, bestT = i, at
			}
		}
		wake, sleeping := k.NextSleeperWake()
		if best == -1 {
			if !sleeping {
				res.Deadlocked = true
				break
			}
			k.WakeSleepersUpTo(wake)
			continue
		}
		if sleeping && bestT >= wake {
			k.WakeSleepersUpTo(bestT)
		}
		steps, _, _ := k.RunCore(best, never, 1)
		res.Steps += steps
	}
	res.AllDone = k.AllDone()
	k.FlushFrames()
	k.PublishMetrics()
	for _, c := range m.Cores {
		res.Cycles = max(res.Cycles, c.Now)
	}
	res.Faults = k.Faults()
	return res
}

// observe captures the observables of a finished run; space is the
// app's address space, compared word by word over [0x1000, Brk).
func observe(m *machine.Machine, res machine.RunResult, space *mem.Space, hooks func() any) burstObs {
	o := burstObs{Res: res}
	if hooks != nil {
		o.Hooks = hooks()
	}
	o.Stats = m.Kern.Stats
	for _, c := range m.Cores {
		co := coreObs{Now: c.Now, Retired: c.PMU.GroundTruth(pmu.EvInstructions, pmu.RingUser)}
		for ev := range co.Truth {
			co.Truth[ev] = c.PMU.GroundTruthTotal(pmu.Event(ev))
		}
		o.Cores = append(o.Cores, co)
	}
	for _, t := range m.Kern.Threads() {
		to := threadObs{ID: t.ID, State: t.State, PC: t.Ctx.PC, Regs: t.Ctx.Regs, Stats: t.Stats}
		for _, tc := range t.Counters() {
			var est uint64
			if g := tc.Group(); g != nil {
				est = g.Estimate(0)
			}
			to.Counters = append(to.Counters, [3]uint64{tc.Saved, tc.Overflows, est})
		}
		for _, g := range t.Groups() {
			ests := make([]uint64, len(g.Events))
			for i := range ests {
				ests[i] = g.Estimate(i)
			}
			to.Groups = append(to.Groups, ests)
		}
		o.Threads = append(o.Threads, to)
	}
	o.Samples = m.Kern.Samples()
	o.Logs = m.Kern.Logs()
	o.Frames = m.Kern.Frames()
	o.Trace = m.Kern.Tracer().Events()
	o.Mem = space.ReadWords(0x1000, int((space.Brk()-0x1000+7)/8))
	return o
}

// sleeperLaunch is the nanosleep + futex-wake program of the kernel's
// migration test: two measured threads and three churn threads that
// alternate compute with short sleeps, so picks often take the sleeper
// path and wake-time placement migrates threads between cores.
func sleeperLaunch(m *machine.Machine) (*mem.Space, func() any) {
	space := mem.NewSpace()
	tableA := space.AllocWords(1)
	tableB := space.AllocWords(1)
	futA := space.AllocWords(1)
	futB := space.AllocWords(1)
	b := isa.NewBuilder()
	body := func(entry string, table, otherFut uint64) {
		b.Label(entry)
		b.Syscall(kernel.SysLimitInit)
		b.MovImm(isa.R0, int64(pmu.EvInstructions))
		b.MovImm(isa.R1, int64(kernel.FlagUser))
		b.MovImm(isa.R2, int64(table))
		b.Syscall(kernel.SysLimitOpen)
		b.MovImm(isa.R8, 0)
		b.Label(entry + ".loop")
		b.Compute(400)
		b.MovImm(isa.R0, int64(otherFut))
		b.MovImm(isa.R1, 1)
		b.Syscall(kernel.SysFutexWake)
		b.MovImm(isa.R0, 2_000)
		b.Syscall(kernel.SysNanosleep)
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, 60)
		b.Br(isa.CondLT, isa.R8, isa.R9, entry+".loop")
		b.Halt()
	}
	body("a", tableA, futB)
	body("b", tableB, futA)
	b.Label("churn")
	b.MovImm(isa.R8, 0)
	b.Label("churn.loop")
	b.Compute(900)
	b.MovImm(isa.R0, 1_500)
	b.Syscall(kernel.SysNanosleep)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, 80)
	b.Br(isa.CondLT, isa.R8, isa.R9, "churn.loop")
	b.Halt()
	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "a", prog.MustEntry("a"), 1)
	m.Kern.Spawn(proc, "b", prog.MustEntry("b"), 2)
	for i := 0; i < 3; i++ {
		m.Kern.Spawn(proc, "churn", prog.MustEntry("churn"), uint64(10+i))
	}
	return space, nil
}

// launcher starts a case's program on a fresh machine and returns its
// address space plus, when hooks are attached, a reader of their state.
type launcher func(*machine.Machine) (*mem.Space, func() any)

// appLaunch launches a freshly built workload app.
func appLaunch(build func() *workloads.App) launcher {
	return func(m *machine.Machine) (*mem.Space, func() any) {
		app := build()
		app.Launch(m)
		return app.Space, nil
	}
}

// hookState is what the chaos hooks leave behind: the injector's
// delivered faults and the checker's verdicts.
type hookState struct {
	Inject     faultinject.Stats
	Reads      uint64
	Violations []invariant.Violation
}

// churnLaunch runs the soak's churn workload (one manager and pool per
// tenant) with an injector under inject and the invariant checker
// attached, as a chaos soak run does.
func churnLaunch(tenants int, inject faultinject.Config) launcher {
	return func(m *machine.Machine) (*mem.Space, func() any) {
		w := workloads.BuildChurn(workloads.ChurnConfig{Tenants: tenants})
		inject.Seed = 0x5ca1ab1e
		inject.NumSlots = m.Cores[0].PMU.NumCounters()
		if inject.CloneEvery > 0 {
			inject.CloneEntry = w.StubEntry
		}
		inj := faultinject.New(inject)
		inj.SetRegions(w.Regions)
		inj.SetCores(len(m.Cores))
		inj.Attach(m.Kern)
		chk := invariant.New(w.Regions)
		chk.Attach(m.Kern)
		proc := m.Kern.NewProcess(w.Prog, w.Space)
		for mt, entry := range w.Entries {
			mgr := m.Kern.Spawn(proc, "churn-mgr", entry, 7+uint64(mt))
			mgr.SetReg(tls.SlotReg, uint64(w.ManagerSlot(mt)))
			mgr.Tenant = mt
		}
		return w.Space, func() any {
			return hookState{inj.Stats, chk.ReadsCompleted, append([]invariant.Violation(nil), chk.Violations()...)}
		}
	}
}

// burstCase is one program and machine shape the burst and reset tests
// run.
type burstCase struct {
	name     string
	cores    int
	counters int    // PMU counters (0: default)
	width    int    // PMU write width (0: default)
	tenants  int    // guest VMs (0: tenant layer off)
	mux      uint64 // group rotation quantum (0: kernel default)
	launch   launcher
}

// burstCases are the cases: four apps under every instrumentation kind,
// 2 to 6 cores, sleepers, and the soak's churn workload quiet, under a
// fault storm and with tenants.
func burstCases() []burstCase {
	mysql := workloads.DefaultMySQL()
	mysql.TxnsPerWorker /= 4
	apache := workloads.DefaultApache()
	apache.RequestsPerWorker /= 4
	firefox := workloads.DefaultFirefox()
	firefox.EventsPerThread /= 4
	forkjoin := workloads.DefaultForkJoin()
	forkjoin.Iterations /= 4

	muxIns := workloads.LimitInstr()
	muxIns.MuxGroups = workloads.DefaultMuxGroups(2)
	sampleIns := workloads.Instrumentation{Kind: probe.KindSample, SamplePeriod: 20_000}
	perfIns := workloads.Instrumentation{Kind: probe.KindPerf}

	// The soak's fault classes at once: budgeted in-region and random
	// preemptions, spurious and delayed PMIs, a migration storm, cache
	// flushes, signal holds, kills of cloned threads and a clone storm.
	storm := faultinject.Config{
		PreemptInRegions: true, PreemptEvery: 997,
		SpuriousPMIEvery: 211, DelayPMI: true, DelayBoundaries: 3,
		MigrationStorm: true, FlushEvery: 5003, SignalDelayBoundaries: 2,
		KillEvery: 4001, KillClonesOnly: true,
		CloneEvery: 2003, CloneBudget: 48,
	}
	vcpuStorm := storm
	vcpuStorm.VCpuPreemptInRegions = true
	vcpuStorm.VCpuPreemptEvery = 701

	return []burstCase{
		{"mysql/limit", 4, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildMySQL(mysql, workloads.LimitInstr()) })},
		{"mysql/mux", 4, 6, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildMySQL(mysql, muxIns) })},
		// A rotation quantum of a few hundred cycles puts most
		// rotations inside bursts, where the segment deadline must end
		// each one before the instruction the per-instruction check
		// would rotate at.
		{"mysql/mux-short", 4, 6, 0, 0, 300, appLaunch(func() *workloads.App { return workloads.BuildMySQL(mysql, muxIns) })},
		{"mysql/6cores", 6, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildMySQL(mysql, workloads.LimitInstr()) })},
		{"apache/limit", 4, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildApache(apache, workloads.LimitInstr()) })},
		{"apache/sample", 4, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildApache(apache, sampleIns) })},
		{"apache/perf", 3, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildApache(apache, perfIns) })},
		{"firefox/limit", 4, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildFirefox(firefox, workloads.LimitInstr()) })},
		{"forkjoin/2cores", 2, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildForkJoin(forkjoin, workloads.LimitInstr()) })},
		{"forkjoin/4cores", 4, 0, 0, 0, 0, appLaunch(func() *workloads.App { return workloads.BuildForkJoin(forkjoin, workloads.LimitInstr()) })},
		{"sleepers", 4, 0, 0, 0, 0, sleeperLaunch},
		{"churn/quiet", 4, 0, 10, 0, 0, churnLaunch(1, faultinject.Config{})},
		{"churn/storm", 4, 0, 10, 0, 0, churnLaunch(1, storm)},
		{"churn/tenants", 4, 0, 10, 2, 0, churnLaunch(2, faultinject.Config{})},
		{"churn/tenants-storm", 4, 0, 10, 2, 0, churnLaunch(2, vcpuStorm)},
	}
}

// config is the machine c runs on.
func (c burstCase) config() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.NumCores = c.cores
	cfg.Kernel.MigrateOnWake = true
	if c.counters > 0 {
		cfg.PMU.NumCounters = c.counters
	}
	if c.width > 0 {
		cfg.PMU.WriteWidth = c.width
	}
	cfg.Kernel.MuxQuantum = c.mux
	if c.tenants > 0 {
		// The chaos harness's tenant shape: short thread and
		// tenant quanta, residency capped below the core count.
		cfg.Kernel.Quantum = 30_000
		cfg.Kernel.Tenants = c.tenants
		cfg.Kernel.TenantQuantum = 12_000
		cfg.Kernel.VCPUs = c.cores - 1
	}
	return cfg
}

// run launches c on m, which must be fresh or just reset to
// c.config(), and runs it in bursts or, when single, through
// singleStep.
func (c burstCase) run(m *machine.Machine, single bool) burstObs {
	m.Kern.SetTracer(trace.NewBuffer(1 << 16))
	space, hooks := c.launch(m)
	var res machine.RunResult
	if single {
		res = singleStep(m)
	} else {
		res = m.Run(machine.RunLimits{MaxSteps: runLimit})
	}
	return observe(m, res, space, hooks)
}

func TestBurstMatchesSingleStep(t *testing.T) {
	for _, c := range burstCases() {
		t.Run(c.name, func(t *testing.T) {
			burst := c.run(machine.New(c.config()), false)
			single := c.run(machine.New(c.config()), true)
			if !burst.Res.AllDone || burst.Res.Err != nil {
				t.Fatalf("burst run did not finish cleanly: %v (%v)", burst.Res, burst.Res.Err)
			}
			compareObs(t, burst, single, "burst", "single-step")
		})
	}
}

// TestResetMatchesNew runs every burst case on one machine, reset to
// the case's config before each, and holds each run to the same case
// on a new machine. Consecutive cases change the core count up and
// down, the counter count and the write width, and the machine carries
// caches, TLBs, predictors and PMUs that every earlier case dirtied.
func TestResetMatchesNew(t *testing.T) {
	reused := new(machine.Machine)
	for _, c := range burstCases() {
		t.Run(c.name, func(t *testing.T) {
			reused.Reset(c.config())
			compareObs(t, c.run(reused, false), c.run(machine.New(c.config()), false), "reset", "new")
		})
	}
}

// compareObs reports every field where run a, named an, differs from
// the reference run b, named bn.
func compareObs(t *testing.T, a, b burstObs, an, bn string) {
	t.Helper()
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		x, y := av.Field(i), bv.Field(i)
		if reflect.DeepEqual(x.Interface(), y.Interface()) {
			continue
		}
		if x.Kind() == reflect.Slice {
			if x.Len() != y.Len() {
				t.Errorf("%s: %s has %d entries, %s %d", name, an, x.Len(), bn, y.Len())
				continue
			}
			for j := 0; j < x.Len(); j++ {
				if !reflect.DeepEqual(x.Index(j).Interface(), y.Index(j).Interface()) {
					t.Errorf("%s[%d]: %s %+v, %s %+v", name, j, an, x.Index(j).Interface(), bn, y.Index(j).Interface())
					break
				}
			}
			continue
		}
		t.Errorf("%s: %s %+v, %s %+v", name, an, x.Interface(), bn, y.Interface())
	}
}
