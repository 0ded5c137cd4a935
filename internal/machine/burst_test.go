package machine_test

import (
	"reflect"
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/trace"
	"limitsim/internal/workloads"
)

// The burst path (kernel.RunCore's tight loop, driven by machine.Run's
// horizon) must be observationally identical to one StepCore per
// instruction. Attaching an empty kernel.Probes{} forces the latter
// without changing anything else, so each case runs twice — plain and
// with empty probes — and every observable of the two runs must match.

// burstObs is everything a run leaves behind that a burst could get
// wrong.
type burstObs struct {
	Res     machine.RunResult
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

// observe runs m to completion and captures its observables; space is
// the app's address space, compared word by word over [0x1000, Brk).
func observe(m *machine.Machine, space *mem.Space) burstObs {
	o := burstObs{Res: m.Run(machine.RunLimits{MaxSteps: 200_000_000})}
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
func sleeperLaunch(m *machine.Machine) *mem.Space {
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
	return space
}

// appLaunch launches a freshly built workload app.
func appLaunch(build func() *workloads.App) func(*machine.Machine) *mem.Space {
	return func(m *machine.Machine) *mem.Space {
		app := build()
		app.Launch(m)
		return app.Space
	}
}

func TestBurstMatchesSingleStep(t *testing.T) {
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

	cases := []struct {
		name     string
		cores    int
		counters int // PMU counters (0: default)
		launch   func(*machine.Machine) *mem.Space
	}{
		{"mysql/limit", 4, 0, appLaunch(func() *workloads.App { return workloads.BuildMySQL(mysql, workloads.LimitInstr()) })},
		{"mysql/mux", 4, 6, appLaunch(func() *workloads.App { return workloads.BuildMySQL(mysql, muxIns) })},
		{"apache/limit", 4, 0, appLaunch(func() *workloads.App { return workloads.BuildApache(apache, workloads.LimitInstr()) })},
		{"apache/sample", 4, 0, appLaunch(func() *workloads.App { return workloads.BuildApache(apache, sampleIns) })},
		{"apache/perf", 3, 0, appLaunch(func() *workloads.App { return workloads.BuildApache(apache, perfIns) })},
		{"firefox/limit", 4, 0, appLaunch(func() *workloads.App { return workloads.BuildFirefox(firefox, workloads.LimitInstr()) })},
		{"forkjoin/2cores", 2, 0, appLaunch(func() *workloads.App { return workloads.BuildForkJoin(forkjoin, workloads.LimitInstr()) })},
		{"forkjoin/4cores", 4, 0, appLaunch(func() *workloads.App { return workloads.BuildForkJoin(forkjoin, workloads.LimitInstr()) })},
		{"sleepers", 4, 0, sleeperLaunch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(single bool) burstObs {
				cfg := machine.DefaultConfig()
				cfg.NumCores = c.cores
				cfg.TraceCapacity = 1 << 16
				cfg.Kernel.MigrateOnWake = true
				if c.counters > 0 {
					cfg.PMU.NumCounters = c.counters
				}
				m := machine.New(cfg)
				if single {
					m.Kern.SetProbes(&kernel.Probes{})
				}
				return observe(m, c.launch(m))
			}
			burst, single := run(false), run(true)
			if !burst.Res.AllDone || burst.Res.Err != nil {
				t.Fatalf("burst run did not finish cleanly: %v (%v)", burst.Res, burst.Res.Err)
			}
			compareObs(t, burst, single)
		})
	}
}

// compareObs reports every field where the burst run differs from the
// single-step reference.
func compareObs(t *testing.T, burst, single burstObs) {
	t.Helper()
	bv, sv := reflect.ValueOf(burst), reflect.ValueOf(single)
	for i := 0; i < bv.NumField(); i++ {
		name := bv.Type().Field(i).Name
		b, s := bv.Field(i), sv.Field(i)
		if reflect.DeepEqual(b.Interface(), s.Interface()) {
			continue
		}
		if b.Kind() == reflect.Slice {
			if b.Len() != s.Len() {
				t.Errorf("%s: burst has %d entries, single-step %d", name, b.Len(), s.Len())
				continue
			}
			for j := 0; j < b.Len(); j++ {
				if !reflect.DeepEqual(b.Index(j).Interface(), s.Index(j).Interface()) {
					t.Errorf("%s[%d]: burst %+v, single-step %+v", name, j, b.Index(j).Interface(), s.Index(j).Interface())
					break
				}
			}
			continue
		}
		t.Errorf("%s: burst %+v, single-step %+v", name, b.Interface(), s.Interface())
	}
}
