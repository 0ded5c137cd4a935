package limitsim_test

import (
	"fmt"
	"io"
	"strings"

	"limitsim/internal/analysis"
	"limitsim/internal/isa"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/profile"
	"limitsim/internal/stats"
	"limitsim/internal/tabwrite"
	"limitsim/internal/workloads"
)

// show runs an example body and prints what it wrote with each line's
// trailing spaces dropped: tabwrite pads a table's last column, and an
// example's Output comment cannot hold trailing spaces.
func show(body func(w io.Writer)) {
	var sb strings.Builder
	body(&sb)
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Measure a code region with a LiMiT counter: assemble a small program
// for the simulated machine, attach a LiMiT virtualized instruction
// counter, measure a region of exactly 10,000 instructions from
// userspace, and read the result back. The measurement is precise to
// the instruction and costs tens of nanoseconds per read.
func Example_quickstart() {
	// A fresh address space; programs embed addresses at assembly time.
	space := mem.NewSpace()
	resultAddr := space.AllocWords(1)
	table := limit.AllocTable(space, 1)

	// Assemble: setup → measure 10k instructions → store delta → halt.
	b := isa.NewBuilder()
	e := limit.NewEmitter(b, limit.ModeStock, table)
	ctr := e.AddCounter(limit.UserCounter(pmu.EvInstructions))

	e.EmitInit()
	e.EmitMeasureStart(isa.R4, isa.R5, ctr) // region start
	b.Compute(10_000)                       // the measured region
	e.EmitMeasureEnd(isa.R6, isa.R4, isa.R5, ctr)
	b.MovImm(isa.R7, int64(resultAddr))
	b.Store(isa.R7, 0, isa.R6)
	b.Halt()
	e.EmitFinish()

	// Run it on a single-core machine.
	m := machine.New(machine.Config{NumCores: 1})
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	th := m.Kern.Spawn(proc, "quickstart", 0, 1)
	res := m.MustRun(machine.RunLimits{})

	measured := space.Read64(resultAddr)
	total := limit.MustFinalValue(th, ctr)

	fmt.Println("LiMiT quickstart")
	fmt.Println("----------------")
	fmt.Printf("machine ran for            %d cycles (%.0f ns at 3 GHz)\n",
		res.Cycles, machine.NsFromCycles(res.Cycles))
	fmt.Printf("measured region            %d instructions (10,000 + 4 read-tail)\n", measured)
	fmt.Printf("thread total via counter   %d instructions\n", total)
	fmt.Printf("thread total ground truth  %d instructions\n", th.Stats.UserInstructions)
	fmt.Printf("fixup rewinds              %d\n", th.Stats.FixupRewinds)
	// Output:
	// LiMiT quickstart
	// ----------------
	// machine ran for            29915 cycles (9972 ns at 3 GHz)
	// measured region            10004 instructions (10,000 + 4 read-tail)
	// thread total via counter   10019 instructions
	// thread total ground truth  10025 instructions
	// fixup rewinds              0
}

// The paper's flagship case study in miniature: instrument every lock
// acquisition and critical section of the MySQL workload model with
// LiMiT cycle counters, run it on a 4-core simulated machine, and
// print what only precise counting can show — the critical-section
// length distribution (dominated by very short sections), the cycle
// decomposition, and the kernel/user split.
func Example_mysqlSync() {
	show(func(w io.Writer) {
		cfg := workloads.DefaultMySQL()
		app := workloads.BuildMySQL(cfg, workloads.LimitInstr())

		m, res, _ := app.Run(machine.Config{NumCores: 4}, machine.RunLimits{})
		if len(res.Faults) > 0 {
			panic(fmt.Sprint("faults: ", res.Faults))
		}

		p := analysis.CollectSync(app)
		d := p.Decompose()

		fmt.Fprintf(w, "MySQL model: %d workers x %d txns x %d ops, %d lock operations measured\n",
			cfg.Workers, cfg.TxnsPerWorker, cfg.OpsPerTxn, p.OpsTotal())
		fmt.Fprintf(w, "run: %d Mcycles, %d context switches, %d migrations\n\n",
			res.Cycles/1e6, m.Kern.Stats.CtxSwitches, m.Kern.Stats.Migrations)

		t := tabwrite.New("Critical-section lengths (cycles)", "bucket", "count", "share", "")
		for _, row := range p.CSHist.Rows() {
			t.Row(row.Label, row.Count, row.Share, tabwrite.Bar(row.Share, 40))
		}
		t.Render(w)

		t2 := tabwrite.New("Cycle decomposition", "category", "share")
		t2.Row("lock acquisition", fmt.Sprintf("%.1f%%", d.AcquireShare*100))
		t2.Row("critical sections", fmt.Sprintf("%.1f%%", d.CSShare*100))
		t2.Row("other user work", fmt.Sprintf("%.1f%%", d.OtherShare*100))
		t2.Row("kernel (of user+kernel)", fmt.Sprintf("%.1f%%", d.KernelShare*100))
		t2.Render(w)

		fmt.Fprintf(w, "median CS %d cycles, p99 %d cycles, mean acquire %.0f cycles\n",
			p.CS.Median(), p.CS.Percentile(99), p.Acq.Mean())
	})
	// Output:
	// MySQL model: 8 workers x 150 txns x 11 ops, 13200 lock operations measured
	// run: 7 Mcycles, 2108 context switches, 1013 migrations
	//
	// Critical-section lengths (cycles)
	// =================================
	// bucket       count  share
	// ------       -----  -----
	// [2^8,2^9)    5788   0.44   ##################
	// [2^9,2^10)   5990   0.45   ##################
	// [2^10,2^11)  258    0.02   #
	// [2^11,2^12)  905    0.07   ###
	// [2^12,2^13)  259    0.02   #
	//
	// Cycle decomposition
	// ===================
	// category                 share
	// --------                 -----
	// lock acquisition         10.7%
	// critical sections        55.5%
	// other user work          33.8%
	// kernel (of user+kernel)  18.6%
	//
	// median CS 533 cycles, p99 4299 cycles, mean acquire 150 cycles
}

// Barrier waits in a fork-join parallel program: a parent thread
// spawns workers through the simulated kernel (SysSpawn); each
// iteration runs an imbalanced compute phase, a reduction under a
// shared lock, and a barrier, and every barrier wait is measured with
// LiMiT virtualized cycle reads. Load imbalance shows up directly as
// the barrier-wait distribution, something a sampling profiler can
// only hint at.
func Example_forkjoinSolver() {
	show(func(w io.Writer) {
		cfg := workloads.DefaultForkJoin()
		app := workloads.BuildForkJoin(cfg, workloads.LimitInstr())

		m, res, _ := app.Run(machine.Config{NumCores: 4}, machine.RunLimits{})
		if len(res.Faults) > 0 {
			panic(fmt.Sprint("faults: ", res.Faults))
		}

		p := analysis.CollectSync(app)
		fmt.Fprintf(w, "%d workers (kernel-spawned) x %d iterations on 4 cores: %.1f Mcycles, %d migrations\n\n",
			cfg.Workers, cfg.Iterations, float64(res.Cycles)/1e6, m.Kern.Stats.Migrations)

		t := tabwrite.New("Synchronization per category (cycles)",
			"category", "n", "mean", "p50", "p99")
		row := func(name string, s *stats.Summary) {
			t.Row(name, s.N(), s.Mean(), s.Median(), s.Percentile(99))
		}
		row("lock acquire", p.Acq)
		row("reduction CS", p.CS)
		row("barrier wait", p.Barrier)
		t.Render(w)

		var hist stats.LogHistogram
		for _, plan := range app.Plans {
			if plan.Body != 1 {
				continue
			}
			hist.AddAll(app.Bodies[1].BarrierRec.Column(app.Space, app.ThreadBase(plan), 0))
		}
		ht := tabwrite.New("Barrier wait distribution (cycles)", "bucket", "count", "")
		for _, r := range hist.Rows() {
			ht.Row(r.Label, r.Count, tabwrite.Bar(r.Share, 40))
		}
		ht.Render(w)

		fmt.Fprintf(w, "imbalance: %d%% of phases run 2x long -> barrier p99/p50 = %.1fx\n",
			int(float64(cfg.ImbalancePct)/255*100),
			stats.Ratio(float64(p.Barrier.Percentile(99)), float64(p.Barrier.Median())))
	})
	// Output:
	// 6 workers (kernel-spawned) x 40 iterations on 4 cores: 0.7 Mcycles, 117 migrations
	//
	// Synchronization per category (cycles)
	// =====================================
	// category      n    mean    p50     p99
	// --------      -    ----    ---     ---
	// lock acquire  240  70.8    53      300
	// reduction CS  240  140.8   138     334
	// barrier wait  240  106843  109090  206287
	//
	// Barrier wait distribution (cycles)
	// ==================================
	// bucket       count
	// ------       -----
	// [2^12,2^13)  2
	// [2^13,2^14)  8      #
	// [2^14,2^15)  17     ###
	// [2^15,2^16)  41     #######
	// [2^16,2^17)  82     ##############
	// [2^17,2^18)  90     ###############
	//
	// imbalance: 25% of phases run 2x long -> barrier p99/p50 = 1.9x
}

// The paper's headline overhead result on one workload: run the same
// instrumented loop under every counter access method — LiMiT,
// perf_event syscalls, PAPI, raw rdtsc — plus the uninstrumented
// baseline, and print per-read cost and whole-program slowdown side by
// side. LiMiT reads land in low tens of nanoseconds, one to two orders
// of magnitude below the syscall-based methods.
func Example_overheadComparison() {
	const iters, work = 20_000, 500

	run := func(kind probe.Kind) uint64 {
		app := workloads.BuildReadLoop(workloads.ReadLoopConfig{
			Name: "cmp", Threads: 1, Iters: iters, WorkInstrs: work,
		}, workloads.Instrumentation{Kind: kind})
		_, res, _ := app.Run(machine.Config{NumCores: 1}, machine.RunLimits{})
		if len(res.Faults) > 0 {
			panic(fmt.Sprint("faults: ", res.Faults))
		}
		return res.Cycles
	}

	show(func(w io.Writer) {
		base := run(probe.KindNull)
		fmt.Fprintf(w, "baseline (uninstrumented): %d cycles for %d iterations of %d instructions\n\n",
			base, iters, work)

		t := tabwrite.New("Access-method comparison (one read per 500 instructions)",
			"method", "cycles/read", "ns/read", "slowdown")
		for _, kind := range []probe.Kind{probe.KindRdtsc, probe.KindLimit, probe.KindPerf, probe.KindPAPI} {
			c := run(kind)
			perRead := float64(c-base) / float64(iters)
			t.Row(string(kind), perRead, perRead/machine.CyclesPerNanosecond,
				float64(c)/float64(base))
		}
		t.Render(w)
	})
	// Output:
	// baseline (uninstrumented): 10087562 cycles for 20000 iterations of 500 instructions
	//
	// Access-method comparison (one read per 500 instructions)
	// ========================================================
	// method  cycles/read  ns/read  slowdown
	// ------  -----------  -------  --------
	// rdtsc   7.01         2.34     1.01
	// limit   36.7         12.2     1.07
	// perf    2945         981.5    6.84
	// papi    3303         1101     7.55
}

// The paper's title in action: opt the MySQL and Apache models into
// the region-attribution profiler (internal/profile). Every annotated
// region boundary — lock acquires, critical sections, request phases,
// syscall spans — reads a four-event LiMiT bundle (cycles, all-rings
// cycles, L1D misses, branch misses), affordable only because each
// read costs tens of nanoseconds. The ranked report identifies where
// the architectural bottleneck lives: MySQL's table critical sections
// are memory-bound (they walk shared table data under the lock), while
// Apache's log-append sections are pure compute and the misses live
// outside the locks.
func Example_bottleneckHunt() {
	verdicts := map[profile.Class]string{
		profile.ClassMemoryBound:  "memory-bound: shrink shared data or add speculation",
		profile.ClassComputeBound: "compute-bound: shorten the instruction path",
		profile.ClassKernelBound:  "kernel-bound: batch or avoid the syscalls",
		profile.ClassContention:   "contention: reduce sharing or split the lock",
	}
	show(func(w io.Writer) {
		for _, app := range []*workloads.App{
			workloads.BuildMySQL(workloads.DefaultMySQL(), workloads.ProfileInstr(profile.DefaultSpec())),
			workloads.BuildApache(workloads.DefaultApache(), workloads.ProfileInstr(profile.DefaultSpec())),
		} {
			if _, res, _ := app.Run(machine.Config{NumCores: 4}, machine.RunLimits{}); res.Err != nil {
				panic(res.Err)
			}
			p, err := workloads.CollectProfile(app)
			if err != nil {
				panic(err)
			}
			rep := profile.NewReport(p)
			rep.RenderText(w, 6)
			fmt.Fprintln(w)

			top := rep.Top()
			fmt.Fprintf(w, "%-10s -> top region %s (%s)\n\n", p.App, top.Region.Path, verdicts[top.Class])
		}
	})
	// Output:
	// Bottleneck profile: mysql-5.1 (stride 1, 8 threads)
	// ===================================================
	// rank  region             kind   class          share  self-Mcyc  count  mean-cyc  kernel%  l1d/kc  brmiss/kc
	// ----  ------             ----   -----          -----  ---------  -----  --------  -------  ------  ---------
	// 1     txn/table.cs       cs     memory-bound   40.6%  11.98      13200  908       1.1      2.06    1.50       ########
	// 2     txn                phase  compute-bound  31.4%  9.26       1200   7715      23.9     0.21    2.18       ######
	// 3     txn/table.acquire  lock   contention     13.3%  3.92       13200  297       56.3     0.16    2.69       ###
	// 4     txn/parse          phase  compute-bound  10.9%  3.21       1200   2672      0.2      0.01    0.00       ##
	// 5     txn/think          phase  compute-bound  3.9%   1.17       1200   972       0.6      0.03    0.00       #
	//
	// profiler self-cost: 13361072 cycles over 30000 enter/exit pairs (445.4 cyc/pair, 45.24% of attributed cycles)
	// profiler pair cost vs bare 4-event LiMiT read pair: 1.36x
	//
	// mysql-5.1  -> top region txn/table.cs (memory-bound: shrink shared data or add speculation)
	//
	// Bottleneck profile: apache (stride 1, 8 threads)
	// ================================================
	// rank  region          kind   class          share  self-Mcyc  count  mean-cyc  kernel%  l1d/kc  brmiss/kc
	// ----  ------          ----   -----          -----  ---------  -----  --------  -------  ------  ---------
	// 1     request/handle  phase  compute-bound  38.2%  7.33       2000   3667      0.6      0.01    0.00       ########
	// 2     request         phase  compute-bound  23.0%  4.42       2000   2208      0.0      0.47    0.85       #####
	// 3     request/parse   phase  compute-bound  20.5%  3.93       2000   1967      0.5      0.02    0.00       ####
	// 4     request/file    phase  memory-bound   6.6%   1.26       2000   629       1.6      18.88   1.70       #
	// 5     request/log.cs  cs     compute-bound  4.5%   0.86       2000   430       2.1      0.04    2.37       #
	// 6     request/io      io     kernel-bound   3.0%   0.58       2000   290       97.5     0.25    0.00       #
	//
	// profiler self-cost: 7159252 cycles over 16000 enter/exit pairs (447.5 cyc/pair, 37.27% of attributed cycles)
	// profiler pair cost vs bare 4-event LiMiT read pair: 1.36x
	//
	// apache     -> top region request/handle (compute-bound: shorten the instruction path)
}
