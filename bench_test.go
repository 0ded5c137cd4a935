// Top-level benchmark harness: one benchmark per table and figure of
// the reproduced evaluation (see DESIGN.md's per-experiment index).
// Each benchmark runs the corresponding experiment end to end on the
// simulated machine and reports the experiment's headline numbers as
// custom metrics, so `go test -bench=. -benchmem` regenerates the
// paper's rows. Full tables render via limit-experiments (-only ID
// selects one, e.g. -only T1).
package limitsim_test

import (
	"testing"

	"limitsim/internal/chaos"
	"limitsim/internal/experiments"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/profile"
	"limitsim/internal/telemetry"
	"limitsim/internal/workloads"
)

// benchScale keeps bench wall time moderate while preserving every
// measured shape; the cmd tools default to Full scale.
const benchScale = experiments.Scale(0.5)

func BenchmarkTable1AccessCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		lim, _ := r.Row("limit")
		perf, _ := r.Row("perf")
		papi, _ := r.Row("papi")
		b.ReportMetric(lim.NsRead, "ns/limit-read")
		b.ReportMetric(perf.NsRead, "ns/perf-read")
		b.ReportMetric(papi.NsRead, "ns/papi-read")
		b.ReportMetric(perf.CyclesRead/lim.CyclesRead, "perf/limit-ratio")
	}
}

func BenchmarkTable2Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		raw, _ := r.Row(experiments.VariantRaw)
		stock, _ := r.Row(experiments.VariantStock)
		locked, _ := r.Row(experiments.VariantLocked)
		b.ReportMetric(raw.NsRead, "ns/raw-rdpmc")
		b.ReportMetric(stock.NsRead, "ns/limit-read")
		b.ReportMetric(locked.NsRead, "ns/lock-based-read")
	}
}

func BenchmarkTable3ContextSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		none, _ := r.Row("no counters")
		four, _ := r.Row("4 LiMiT counters")
		hw, _ := r.Row("4 LiMiT + hw-virt (e3)")
		b.ReportMetric(none.CyclesPerSwitch, "cyc/switch-bare")
		b.ReportMetric(four.DeltaVsNone, "cyc/switch-4ctr-extra")
		b.ReportMetric(hw.DeltaVsNone, "cyc/switch-e3-extra")
	}
}

func BenchmarkFig1Perturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		lim, _ := r.Point("limit", 100)
		perf, _ := r.Point("perf", 100)
		perfBig, _ := r.Point("perf", 1_000_000)
		b.ReportMetric(lim.Inflation, "x/limit-100instr")
		b.ReportMetric(perf.Inflation, "x/perf-100instr")
		b.ReportMetric(perfBig.Inflation, "x/perf-1Minstr")
	}
}

func BenchmarkFig2Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		lim, _ := r.Point("limit", 30)
		perf, _ := r.Point("perf", 30)
		limSparse, _ := r.Point("limit", 10_000)
		b.ReportMetric(lim.Slowdown, "x/limit-dense")
		b.ReportMetric(perf.Slowdown, "x/perf-dense")
		b.ReportMetric(limSparse.Slowdown, "x/limit-sparse")
	}
}

func BenchmarkFig3CriticalSections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCaseStudies(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range r.Apps {
			b.ReportMetric(float64(app.Profile.CS.Median()), "cyc/cs-median-"+app.Name)
		}
	}
}

func BenchmarkFig4Decomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCaseStudies(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range r.Apps {
			b.ReportMetric(app.Decomp.SyncShare*100, "pct/sync-"+app.Name)
		}
	}
}

func BenchmarkFig5Longitudinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.LocksPerTxn, "locks/txn-"+row.Version)
			b.ReportMetric(row.SyncShare*100, "pct/sync-"+row.Version)
		}
	}
}

func BenchmarkFig6KernelUser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCaseStudies(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range r.Apps {
			b.ReportMetric(app.Decomp.KernelShare*100, "pct/kernel-"+app.Name)
		}
	}
}

func BenchmarkTable4Sampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PreciseAcq*100, "pct/precise-acquire")
		coarse := r.Rows[0]
		fine := r.Rows[len(r.Rows)-1]
		b.ReportMetric((coarse.ErrAcq+coarse.ErrCS)*100, "pct/err-coarse")
		b.ReportMetric((fine.ErrAcq+fine.ErrCS)*100, "pct/err-fine")
	}
}

func BenchmarkAblationOverflowMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblationOverflow(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		kf, _ := r.Row("kernel-fold", 12)
		su, _ := r.Row("signal-user", 12)
		b.ReportMetric(kf.CyclesPerFold, "cyc/fold-kernel")
		b.ReportMetric(su.CyclesPerFold, "cyc/fold-signal")
	}
}

func BenchmarkAblationQuantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblationQuantum(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].RewindsPerKRead, "rewinds/kread-q500")
		b.ReportMetric(float64(r.Rows[0].Torn), "torn-q500")
	}
}

func BenchmarkFig8Bottlenecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Apps {
			top := a.Report.Top()
			b.ReportMetric(top.Share*100, "pct/top-"+a.Name)
			b.ReportMetric(top.L1DPerKC, "l1dpkc/top-"+a.Name)
		}
	}
}

// BenchmarkProfileRegionEnterExit pins the profiler's per-boundary
// cost: it runs the region microbenchmark bare (raw LiMiT read pairs)
// and profiled (full accumulator update) and reports the measured
// enter/exit pair cost plus its ratio to the bare read-pair floor. The
// acceptance bound is ratio <= 2x.
func BenchmarkProfileRegionEnterExit(b *testing.B) {
	cfg := workloads.DefaultRegionBench()
	spec := profile.DefaultSpec()
	run := func(mode workloads.RegionBenchMode) float64 {
		app := workloads.BuildRegionBench(cfg, spec, mode)
		m := machine.New(machine.Config{NumCores: 1})
		app.Launch(m)
		if res := m.Run(machine.RunLimits{}); res.Err != nil {
			b.Fatal(res.Err)
		}
		return float64(workloads.RegionBenchTotal(app))
	}
	for i := 0; i < b.N; i++ {
		none := run(workloads.RegionBenchNone)
		bare := run(workloads.RegionBenchBare)
		profiled := run(workloads.RegionBenchProfiled)
		iters := float64(cfg.Iters)
		b.ReportMetric((profiled-none)/iters, "cyc/pair")
		b.ReportMetric((bare-none)/iters, "cyc/bare-pair")
		b.ReportMetric((profiled-none)/(bare-none), "x/vs-bare")
	}
}

func BenchmarkTable5Multiplexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		four, _ := r.Row(4)
		eight, _ := r.Row(8)
		b.ReportMetric(four.MeanAbsErr*100, "pct/err-4ctr")
		b.ReportMetric(eight.MeanAbsErr*100, "pct/err-8ctr")
	}
}

func BenchmarkFig9Consolidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].RunMcycles, "Mcyc/solo")
		b.ReportMetric(r.Rows[1].RunMcycles, "Mcyc/colocated")
		b.ReportMetric(float64(r.Rows[1].CSP99)/float64(r.Rows[0].CSP99), "x/csp99-stability")
	}
}

// benchTelemetry runs one instrumented forkjoin workload with or
// without the kernel telemetry layer attached. Disabled telemetry is
// the default state and must cost only the nil checks on the kernel's
// hot paths — the two benchmarks should sit within noise of each other.
func benchTelemetry(b *testing.B, withMetrics bool) {
	for i := 0; i < b.N; i++ {
		app := workloads.BuildForkJoin(workloads.DefaultForkJoin(), workloads.LimitInstr())
		m := machine.New(machine.Config{NumCores: 4})
		if withMetrics {
			m.Kern.SetMetrics(kernel.NewMetrics(telemetry.NewRegistry(), 0))
		}
		app.Launch(m)
		if res := m.Run(machine.RunLimits{}); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkTelemetryDisabled(b *testing.B) { benchTelemetry(b, false) }

func BenchmarkTelemetryEnabled(b *testing.B) { benchTelemetry(b, true) }

// benchCampaign runs one full chaos campaign per iteration at the
// given pool width. Serial vs parallel is the execution engine's
// headline comparison: identical work, identical report, wall-clock
// divided by the worker count (pinned to byte-equality by
// TestCampaignParallelDeterminism). -benchmem makes the per-run
// allocation savings from worker pooling visible alongside.
func benchCampaign(b *testing.B, parallel int) {
	cfg := chaos.Config{Seeds: 4, Threads: 4, Iters: 200, Parallel: parallel}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := chaos.Run(cfg)
		if v := res.TotalViolations(); v != 0 {
			b.Fatalf("campaign reported %d violations", v)
		}
	}
}

func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0) }

func BenchmarkFig7Enhancements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		stock, _ := r.Reads.Row(experiments.VariantStock)
		e1, _ := r.Reads.Row(experiments.VariantE1)
		e2, _ := r.Reads.Row(experiments.VariantE2)
		b.ReportMetric(stock.NsRead, "ns/read-stock")
		b.ReportMetric(e1.NsRead, "ns/read-e1")
		b.ReportMetric(e2.NsRead, "ns/read-e2")
	}
}
