package metrics_test

import (
	"testing"

	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/workloads"
)

// muxRun executes one workload run with the full derived-metric event
// set multiplexed, exactly as limitctl metrics configures it, and
// returns the frame stream. build must return an app whose threads all
// exist at Launch when tenants > 1 (forkjoin clones its workers at
// runtime, so they inherit the launcher's guest).
func muxRun(t *testing.T, tenants int, build func(workloads.Instrumentation) *workloads.App) []metrics.Frame {
	t.Helper()
	ins := workloads.LimitInstr()
	ins.MuxGroups = workloads.DefaultMuxGroups(4)
	app := build(ins)

	f := pmu.DefaultFeatures()
	f.NumCounters = 6
	kcfg := kernel.DefaultConfig()
	kcfg.Tenants = tenants
	m := machine.New(machine.Config{NumCores: 4, PMU: f, Kernel: kcfg})
	threads := app.Launch(m)
	if tenants > 1 {
		for i, th := range threads {
			th.Tenant = i % tenants
		}
	}
	res := m.Run(machine.RunLimits{})
	if len(res.Faults) > 0 || !res.AllDone {
		t.Fatalf("run failed: %+v", res)
	}
	return metrics.FromKernel(m.Kern)
}

// The reconciliation regression the windowed series is pinned to: for
// a real multiplexed run, summing every window's signed input deltas
// reproduces the end-of-run totals exactly — for every event the
// catalogue's metrics consume, at several window sizes, under every
// split. A drift here means the time-series view and the totals view
// disagree about what was measured.
func TestWindowedSeriesReconcilesWithRun(t *testing.T) {
	frames := muxRun(t, 1, func(ins workloads.Instrumentation) *workloads.App {
		cfg := workloads.DefaultForkJoin()
		cfg.Iterations = cfg.Iterations / 4
		return workloads.BuildForkJoin(cfg, ins)
	})
	if len(frames) < 8 {
		t.Fatalf("only %d frames; the run barely rotated", len(frames))
	}
	totals := metrics.Totals(frames)

	// Every input of every built-in metric must be measurable in this
	// stream — the catalogue and the default event set move together.
	for i := range metrics.Builtin {
		for _, id := range metrics.Builtin[i].Inputs {
			if _, ok := totals[id]; !ok {
				t.Errorf("metric %q input %q absent from the frame stream",
					metrics.Builtin[i].Name, id)
			}
		}
	}
	if totals["instructions"] == 0 {
		t.Fatal("run retired no instructions")
	}

	for _, window := range []uint64{1_000, 77_777, 1 << 40} {
		for _, split := range []metrics.Split{metrics.SplitNone, metrics.SplitThread} {
			ss, err := metrics.Windowed(frames, window, split)
			if err != nil {
				t.Fatal(err)
			}
			sums := make(map[string]int64)
			for _, key := range ss.Keys {
				for w := range ss.Windows {
					for name, d := range ss.Delta(key, w) {
						sums[name] += d
					}
				}
			}
			for name, total := range totals {
				if sums[name] != int64(total) {
					t.Errorf("window=%d split=%s: %s windowed sum %d != total %d",
						window, split, name, sums[name], total)
				}
			}
		}
	}

	// The fine windowing really is a series, and its tail carries the
	// partial mark unless the run ended exactly on a boundary.
	ss, err := metrics.Windowed(frames, 1_000, metrics.SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Windows) < 2 {
		t.Fatalf("1k-cycle windows produced %d windows", len(ss.Windows))
	}
}

// Tenant-stamped runs reconcile per guest: each tenant's windowed sums
// equal the totals of its own threads' frames, and the per-tenant
// totals sum to the aggregate.
func TestWindowedTenantSplitReconciles(t *testing.T) {
	frames := muxRun(t, 2, func(ins workloads.Instrumentation) *workloads.App {
		cfg := workloads.DefaultApache()
		cfg.Workers = 4
		cfg.RequestsPerWorker = 40
		return workloads.BuildApache(cfg, ins)
	})
	byTenant := map[int][]metrics.Frame{}
	for _, f := range frames {
		byTenant[f.TenantID()] = append(byTenant[f.TenantID()], f)
	}
	if len(byTenant) != 2 {
		t.Fatalf("frames span %d tenants, want 2", len(byTenant))
	}

	ss, err := metrics.Windowed(frames, 50_000, metrics.SplitTenant)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Keys) != 2 {
		t.Fatalf("tenant split keys = %v, want 2", ss.Keys)
	}
	aggregate := metrics.Totals(frames)
	acc := make(map[string]int64)
	for _, key := range ss.Keys {
		sums := make(map[string]int64)
		for w := range ss.Windows {
			for name, d := range ss.Delta(key, w) {
				sums[name] += d
				acc[name] += d
			}
		}
		tenantTotals := metrics.Totals(byTenant[key])
		for name, total := range tenantTotals {
			if sums[name] != int64(total) {
				t.Errorf("tenant %d: %s windowed sum %d != own-frames total %d", key, name, sums[name], total)
			}
		}
	}
	for name, total := range aggregate {
		if acc[name] != int64(total) {
			t.Errorf("%s per-tenant sums %d != aggregate total %d", name, acc[name], total)
		}
	}
}
