package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// renderCampaign runs a small but non-trivial campaign at the given
// pool width and returns the full rendered report, telemetry included.
func renderCampaign(t *testing.T, parallel int) string {
	t.Helper()
	res := Run(Config{
		Seeds:    3,
		Threads:  4,
		Iters:    120,
		Metrics:  true,
		Parallel: parallel,
	})
	var sb strings.Builder
	res.Render(&sb)
	return sb.String()
}

// TestCampaignParallelDeterminism is the engine's core contract: the
// campaign report — mix table, violation details, run errors and the
// merged telemetry block — must be byte-identical at every pool width,
// because outcomes land in (mix, seed)-keyed slots and fold in key
// order regardless of completion order. Run under -race this also
// vets the worker pool for data races.
func TestCampaignParallelDeterminism(t *testing.T) {
	serial := renderCampaign(t, 1)
	for _, par := range []int{2, 4, 8} {
		if got := renderCampaign(t, par); got != serial {
			t.Errorf("parallel=%d report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				par, serial, got)
		}
	}
}

// TestCampaignParallelDeterminismNoFixup repeats the byte-equality
// check on the ablated campaign, where runs actually report torn reads
// — the violation-sample section must also assemble identically.
func TestCampaignParallelDeterminismNoFixup(t *testing.T) {
	render := func(parallel int) string {
		res := Run(Config{
			Seeds:    2,
			Threads:  4,
			Iters:    120,
			NoFixup:  true,
			Parallel: parallel,
			Mixes: []Mix{
				{Name: "pmi-storm", Inject: DefaultMixes()[2].Inject},
			},
		})
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	serial := render(1)
	if render(4) != serial {
		t.Error("ablated campaign report differs between serial and parallel=4")
	}
	if !strings.Contains(serial, "torn") {
		t.Error("ablated campaign rendered no torn-read evidence")
	}
}

// TestSoakParallelDeterminism is the same contract for the lifecycle
// engine: seeds fan out within each mix, yet the soak report (wave
// accounting and telemetry included) must match the serial engine
// byte for byte.
func TestSoakParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		res := RunSoak(SoakConfig{
			Seeds:    2,
			Waves:    3,
			Iters:    30,
			Metrics:  true,
			Parallel: parallel,
		})
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	serial := render(1)
	for _, par := range []int{2, 4} {
		if got := render(par); got != serial {
			t.Errorf("soak parallel=%d report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				par, serial, got)
		}
	}
}

// TestCampaignWorkerReuseClean pins the pooling contract directly: a
// worker that has run a seed, then one seed of every mix, must run
// that seed again to the outcome a fresh worker gives it — every
// field, tenant accounting and telemetry block included — so the
// reset machine, Restore and the in-place Resets leave no residue.
func TestCampaignWorkerReuseClean(t *testing.T) {
	for _, tenants := range []int{0, 2} {
		cfg := Config{Seeds: 1, Threads: 4, Iters: 120, Metrics: true, Tenants: tenants}.WithDefaults()
		ws := newCampaignWorker(cfg)
		mi := len(cfg.Mixes) - 1 // the full mix: every injector path
		mix, seed := cfg.Mixes[mi], RunSeed(mi, 0)

		first := ws.run(cfg, mix, seed)
		for i, m := range cfg.Mixes {
			ws.run(cfg, m, RunSeed(i, 7))
		}
		again := ws.run(cfg, mix, seed)
		fresh := newCampaignWorker(cfg).run(cfg, mix, seed)
		if !reflect.DeepEqual(first, fresh) || !reflect.DeepEqual(again, fresh) {
			t.Errorf("tenants=%d: worker reuse changed a run's outcome:\nfirst: %+v\nagain: %+v\nfresh: %+v", tenants, first, again, fresh)
		}
		if fresh.Telemetry == "" || (tenants > 1 && fresh.VCpuSwitches == 0) {
			t.Errorf("tenants=%d: outcome lacks telemetry or tenant accounting: %+v", tenants, fresh)
		}
	}
}

// TestSoakWorkerReuseClean is the same contract for the soak worker,
// whose pooled churn workload recycles slots and table words every
// wave.
func TestSoakWorkerReuseClean(t *testing.T) {
	for _, tenants := range []int{1, 2} {
		cfg := quickSoakCfg()
		cfg.Metrics, cfg.Tenants = true, tenants
		cfg = cfg.WithDefaults()
		ws := newSoakWorker(cfg)
		mi := len(cfg.Mixes) - 1 // full-churn: preempts, kills and clone storms
		mix, seed := cfg.Mixes[mi], RunSeed(mi, 0)

		first := ws.run(cfg, mix, seed)
		for i, m := range cfg.Mixes {
			ws.run(cfg, m, RunSeed(i, 3))
		}
		again := ws.run(cfg, mix, seed)
		fresh := newSoakWorker(cfg).run(cfg, mix, seed)
		if !reflect.DeepEqual(first, fresh) || !reflect.DeepEqual(again, fresh) {
			t.Errorf("tenants=%d: worker reuse changed a soak run's outcome:\nfirst: %+v\nagain: %+v\nfresh: %+v", tenants, first, again, fresh)
		}
		if fresh.Telemetry == "" || fresh.Clones == 0 || (tenants > 1 && fresh.VCpuSwitches == 0) {
			t.Errorf("tenants=%d: soak outcome lacks telemetry, churn or tenant accounting: %+v", tenants, fresh)
		}
	}
}
