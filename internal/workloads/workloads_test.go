package workloads

import (
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/probe"
)

func smallMySQL() MySQLConfig {
	cfg := MySQLVersion("5.1")
	cfg.Workers = 4
	cfg.TxnsPerWorker = 20
	return cfg
}

func runApp(t *testing.T, app *App, cores int) (*machine.Machine, machine.RunResult) {
	t.Helper()
	m := machine.New(machine.Config{NumCores: cores})
	app.Launch(m)
	res := m.Run(machine.RunLimits{MaxSteps: 200_000_000})
	if len(res.Faults) > 0 {
		t.Fatalf("%s: faults: %v", app.Name, res.Faults)
	}
	if res.Deadlocked {
		t.Fatalf("%s: deadlocked", app.Name)
	}
	if !res.AllDone {
		t.Fatalf("%s: did not finish: %v", app.Name, res)
	}
	return m, res
}

func TestMySQLRunsAndRecords(t *testing.T) {
	cfg := smallMySQL()
	app := BuildMySQL(cfg, LimitInstr())
	_, _ = runApp(t, app, 4)

	body := app.Bodies[0]
	wantOps := uint64(cfg.TxnsPerWorker * cfg.OpsPerTxn)
	for _, plan := range app.Plans {
		tb := app.ThreadBase(plan)
		n := body.LockRec.Count(app.Space, tb)
		if n != wantOps {
			t.Errorf("%s: %d lock records, want %d", plan.Name, n, wantOps)
		}
		total := app.Space.Read64(body.TotalCycles.Resolve(tb))
		if total == 0 {
			t.Errorf("%s: zero measured total cycles", plan.Name)
		}
		var sync uint64
		for _, r := range body.LockRec.Records(app.Space, tb) {
			acq, cs := r[0], r[1]
			if cs < uint64(cfg.CSShortInstrs) {
				t.Fatalf("%s: cs delta %d below minimum body %d", plan.Name, cs, cfg.CSShortInstrs)
			}
			if cs > 10_000_000 || acq > 50_000_000 {
				t.Fatalf("%s: implausible deltas acq=%d cs=%d", plan.Name, acq, cs)
			}
			sync += acq + cs
		}
		if sync >= total {
			t.Errorf("%s: sync %d >= total %d", plan.Name, sync, total)
		}
	}
}

func TestMySQLVersionsOrdering(t *testing.T) {
	// Newer versions must acquire more locks per transaction.
	prev := 0
	for _, v := range []string{"3.23", "4.1", "5.1"} {
		cfg := MySQLVersion(v)
		if cfg.OpsPerTxn <= prev {
			t.Errorf("version %s: OpsPerTxn %d not increasing", v, cfg.OpsPerTxn)
		}
		prev = cfg.OpsPerTxn
	}
}

func TestApacheRunsAndIsKernelHeavy(t *testing.T) {
	cfg := DefaultApache()
	cfg.Workers = 4
	cfg.RequestsPerWorker = 40
	app := BuildApache(cfg, LimitInstr())
	_, _ = runApp(t, app, 4)

	body := app.Bodies[0]
	var user, all uint64
	for _, plan := range app.Plans {
		tb := app.ThreadBase(plan)
		user += app.Space.Read64(body.TotalCycles.Resolve(tb))
		all += app.Space.Read64(body.AllRingCycles.Resolve(tb))
	}
	if all <= user {
		t.Fatalf("user+kernel total %d not above user total %d", all, user)
	}
	kernelShare := float64(all-user) / float64(all)
	if kernelShare < 0.15 {
		t.Errorf("apache kernel share %.3f too low; model should be kernel-heavy", kernelShare)
	}
}

func TestFirefoxRunsWithTinyCriticalSections(t *testing.T) {
	cfg := DefaultFirefox()
	cfg.Helpers = 3
	cfg.EventsPerThread = 40
	app := BuildFirefox(cfg, LimitInstr())
	_, _ = runApp(t, app, 4)

	helper := app.Bodies[1]
	var csSum, csN uint64
	for _, plan := range app.Plans {
		if plan.Body != 1 {
			continue
		}
		tb := app.ThreadBase(plan)
		for _, r := range helper.LockRec.Records(app.Space, tb) {
			csSum += r[1]
			csN++
		}
	}
	if csN == 0 {
		t.Fatal("no helper lock records")
	}
	mean := float64(csSum) / float64(csN)
	if mean > 500 {
		t.Errorf("allocator critical sections mean %.0f cycles; expected tiny (<500)", mean)
	}
}

// TestReadLoopAllKinds drives every access method through the read
// loop: each active kind measures the loop as a nonzero total of user
// cycles no larger than the thread's true user cycles; the passive
// kinds record nothing, and sample arms the profiler instead.
func TestReadLoopAllKinds(t *testing.T) {
	for _, kind := range probe.AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultReadLoop()
			cfg.Iters = 2_000
			ins := Instrumentation{Kind: kind, SamplePeriod: 50_000}
			app := BuildReadLoop(cfg, ins)
			m, _ := runApp(t, app, 1)
			total := app.Space.Read64(app.Bodies[0].TotalCycles.Resolve(app.ThreadBase(app.Plans[0])))
			truth := m.Kern.Threads()[0].Stats.UserCycles
			if ins.Active() {
				// The loop is all but the whole thread: the prolog, the
				// reads' own bookkeeping and the exit are all it leaves out.
				if total == 0 || total > truth || total < truth-truth/1000 {
					t.Errorf("measured %d cycles, want nonzero and within 0.1%% below the true %d", total, truth)
				}
			} else if total != 0 {
				t.Errorf("passive kind recorded %d cycles, want 0", total)
			}
			if kind == probe.KindSample && len(m.Kern.Samples()) == 0 {
				t.Error("sampling produced no samples")
			}
		})
	}
}

func TestRdtscLeaksDescheduledTime(t *testing.T) {
	// The rdtsc baseline is cheap but unvirtualized: a region measured
	// with raw cycle reads absorbs every context switch and the rival
	// thread's entire time slice, while LiMiT's virtualized cycles
	// count only the measuring thread. This is Table 1's
	// "virtualized" column made concrete.
	run := func(kind probe.Kind) float64 {
		cfg := RegionConfig{Name: "virt-" + string(kind), RegionInstrs: 3_000, Iters: 150}
		app := BuildMeasuredRegions(cfg, Instrumentation{Kind: kind})

		kcfg := kernelDefaultSmallQuantum()
		m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})
		app.Launch(m)
		// A rival process sharing the single core.
		b := isa.NewBuilder()
		b.MovImm(isa.R1, 0)
		b.MovImm(isa.R2, 3_000_000)
		b.Label("l")
		b.Compute(200)
		b.AddImm(isa.R1, isa.R1, 200)
		b.Br(isa.CondLT, isa.R1, isa.R2, "l")
		b.Halt()
		rival := m.Kern.NewProcess(b.MustBuild(), nil)
		m.Kern.Spawn(rival, "rival", 0, 99)

		res := m.Run(machine.RunLimits{MaxSteps: 200_000_000})
		if len(res.Faults) > 0 || !res.AllDone {
			t.Fatalf("%s: %v", kind, res)
		}
		body := app.Bodies[0]
		deltas := body.LockRec.Column(app.Space, app.ThreadBase(app.Plans[0]), 0)
		var sum float64
		for _, d := range deltas {
			sum += float64(d)
		}
		return sum / float64(len(deltas))
	}

	limitMean := run(probe.KindLimit)
	rdtscMean := run(probe.KindRdtsc)
	if limitMean > 3_400 {
		t.Errorf("limit mean %f; virtualized cycles should stay near the region size", limitMean)
	}
	if rdtscMean < 2*limitMean {
		t.Errorf("rdtsc mean %f vs limit %f; raw cycles should absorb rival time slices",
			rdtscMean, limitMean)
	}
}

func TestProcessWideCounting(t *testing.T) {
	// The sum of per-thread LiMiT totals is exact process-wide
	// accounting, matching kernel ground truth across all workers.
	cfg := smallMySQL()
	app := BuildMySQL(cfg, LimitInstr())
	m, _ := runApp(t, app, 4)

	threads := m.Kern.Threads()
	proc := threads[0].Proc
	total, err := limit.ProcessTotal(proc, threads, 0)
	if err != nil {
		t.Fatal(err)
	}
	var truth uint64
	for _, th := range threads {
		truth += th.Stats.UserCycles
	}
	if total > truth {
		t.Fatalf("process-wide counter %d exceeds ground truth %d", total, truth)
	}
	// The only uncounted cycles are each thread's setup prologue.
	if truth-total > uint64(len(app.Plans))*200 {
		t.Fatalf("process-wide counter %d too far below ground truth %d", total, truth)
	}
}

func TestMeasuredRegionsPrecision(t *testing.T) {
	cfg := RegionConfig{Name: "regions", RegionInstrs: 5_000, Iters: 200}
	app := BuildMeasuredRegions(cfg, LimitInstr())
	_, _ = runApp(t, app, 1)
	body := app.Bodies[0]
	tb := app.ThreadBase(app.Plans[0])
	recs := body.LockRec.Column(app.Space, tb, 0)
	if len(recs) != cfg.Iters {
		t.Fatalf("got %d records, want %d", len(recs), cfg.Iters)
	}
	for i, d := range recs {
		// Region is RegionInstrs 1-cycle instructions plus the read
		// tail; allow small slack, no tearing.
		if d < uint64(cfg.RegionInstrs) || d > uint64(cfg.RegionInstrs)+200 {
			t.Fatalf("record %d: delta %d implausible for region %d", i, d, cfg.RegionInstrs)
		}
	}
}

// kernelDefaultSmallQuantum returns a kernel config with an aggressive
// quantum so single-core contention produces many switches.
func kernelDefaultSmallQuantum() kernel.Config {
	kcfg := kernel.DefaultConfig()
	kcfg.Quantum = 5_000
	return kcfg
}

func TestForkJoinSolver(t *testing.T) {
	cfg := DefaultForkJoin()
	cfg.Workers = 4
	cfg.Iterations = 12
	app := BuildForkJoin(cfg, LimitInstr())
	m, _ := runApp(t, app, 4)

	// All workers were created by SysSpawn: parent + workers in total.
	if n := len(m.Kern.Threads()); n != 1+cfg.Workers {
		t.Fatalf("threads %d, want %d", n, 1+cfg.Workers)
	}

	worker := app.Bodies[1]
	for _, plan := range app.Plans {
		if plan.Body != 1 {
			continue
		}
		tb := app.ThreadBase(plan)
		if n := worker.LockRec.Count(app.Space, tb); n != uint64(cfg.Iterations) {
			t.Errorf("%s: %d reduction records, want %d", plan.Name, n, cfg.Iterations)
		}
		waits := worker.BarrierRec.Column(app.Space, tb, 0)
		if len(waits) != cfg.Iterations {
			t.Fatalf("%s: %d barrier records, want %d", plan.Name, len(waits), cfg.Iterations)
		}
		for i, w := range waits {
			if w > 5_000_000 {
				t.Errorf("%s: barrier wait %d at episode %d implausible", plan.Name, w, i)
			}
		}
	}
}

func TestForkJoinReductionExact(t *testing.T) {
	// The reduction increments a shared word once per worker per
	// iteration under the lock; the final sum proves mutual exclusion
	// held across SysSpawn-created threads.
	cfg := DefaultForkJoin()
	cfg.Workers = 5
	cfg.Iterations = 10
	app := BuildForkJoin(cfg, LimitInstr())
	_, _ = runApp(t, app, 4)

	// Every worker recorded exactly Iterations reductions; their sum
	// proves the whole fork-join pipeline ran to completion.
	total := 0
	worker := app.Bodies[1]
	for _, plan := range app.Plans {
		if plan.Body == 1 {
			total += int(worker.LockRec.Count(app.Space, app.ThreadBase(plan)))
		}
	}
	if total != cfg.Workers*cfg.Iterations {
		t.Errorf("reductions recorded %d, want %d", total, cfg.Workers*cfg.Iterations)
	}
}

func TestAppLevelDeterminism(t *testing.T) {
	// Two identical MySQL runs must produce bit-identical measurements:
	// every record, every counter, every kernel statistic.
	runOnce := func() (cycles uint64, acqSum, csSum uint64, switches uint64) {
		cfg := smallMySQL()
		app := BuildMySQL(cfg, LimitInstr())
		m, res := runApp(t, app, 4)
		body := app.Bodies[0]
		for _, plan := range app.Plans {
			for _, r := range body.LockRec.Records(app.Space, app.ThreadBase(plan)) {
				acqSum += r[0]
				csSum += r[1]
			}
		}
		return res.Cycles, acqSum, csSum, m.Kern.Stats.CtxSwitches
	}
	c1, a1, s1, w1 := runOnce()
	c2, a2, s2, w2 := runOnce()
	if c1 != c2 || a1 != a2 || s1 != s2 || w1 != w2 {
		t.Fatalf("nondeterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			c1, a1, s1, w1, c2, a2, s2, w2)
	}
}

// TestByName: every application name the commands accept builds the
// model it names (plain "mysql" is 5.1), and an unknown name builds
// nothing.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"mysql": "mysql-5.1", "mysql-5.1": "mysql-5.1", "mysql-4.1": "mysql-4.1", "mysql-3.23": "mysql-3.23",
		"apache": "apache", "firefox": "firefox", "forkjoin": "forkjoin",
	} {
		got := "nil"
		if app := ByName(name, Instrumentation{}, 0.01); app != nil {
			got = app.Name
		}
		if got != want {
			t.Errorf("ByName(%q) built %s, want %s", name, got, want)
		}
	}
	if app := ByName("bogus", Instrumentation{}, 1); app != nil {
		t.Errorf("ByName(bogus) = %s, want nil", app.Name)
	}
}
