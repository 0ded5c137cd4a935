package probe_test

import (
	"testing"

	"limitsim/internal/machine"
	"limitsim/internal/probe"
	"limitsim/internal/workloads"
)

// runKind instruments a one-thread read loop of a single 1000-
// instruction block with the given access method and returns the
// block's measured cycle total, the thread's true user cycles, and the
// machine it ran on.
func runKind(t *testing.T, kind probe.Kind) (total, truth uint64, m *machine.Machine) {
	t.Helper()
	cfg := workloads.DefaultReadLoop()
	cfg.Iters = 1
	app := workloads.BuildReadLoop(cfg, workloads.Instrumentation{Kind: kind, SamplePeriod: 500})
	m, res, threads := app.Run(machine.Config{NumCores: 1}, machine.RunLimits{MaxSteps: 10_000_000})
	if len(res.Faults) > 0 || !res.AllDone {
		t.Fatalf("%s: %v", kind, res)
	}
	total = app.Space.Read64(app.Bodies[0].TotalCycles.Resolve(app.ThreadBase(app.Plans[0])))
	return total, threads[0].Stats.UserCycles, m
}

func TestActiveProbesMeasureTheBlock(t *testing.T) {
	for _, kind := range []probe.Kind{probe.KindLimit, probe.KindPerf, probe.KindPAPI} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			total, truth, _ := runKind(t, kind)
			// 1000 one-cycle compute instructions plus the loop's own
			// read and bookkeeping (PAPI adds its bookkeeping work too);
			// a user-ring count never exceeds the thread's user cycles.
			if total < 1_000 || total > 1_900 {
				t.Errorf("measured %d cycles, want ~1000 (+instrumentation)", total)
			}
			if total > truth {
				t.Errorf("measured %d cycles, more than the thread's true %d", total, truth)
			}
		})
	}
}

func TestRdtscMeasuresCycles(t *testing.T) {
	total, _, _ := runKind(t, probe.KindRdtsc)
	if total < 1_000 {
		t.Errorf("rdtsc measured %d, want >= 1000 cycles", total)
	}
}

func TestPassiveProbesReadZero(t *testing.T) {
	for _, kind := range []probe.Kind{probe.KindNull, probe.KindSample} {
		total, _, m := runKind(t, kind)
		if total != 0 {
			t.Errorf("%s recorded %d cycles, want 0", kind, total)
		}
		if kind == probe.KindSample && len(m.Kern.Samples()) == 0 {
			t.Error("sample kind should have armed the profiler")
		}
	}
}
