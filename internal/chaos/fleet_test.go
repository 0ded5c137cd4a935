package chaos_test

// The fleet-vs-Run oracles: a campaign or soak sharded across fleet
// workers and assembled from their payloads must render byte-identical
// to chaos.Run/RunSoak, which fold the same outcome structs directly.
// A field the payload dropped shows up here as a report diff.

import (
	"bytes"
	"testing"
	"time"

	"limitsim/internal/chaos"
	"limitsim/internal/fleet"
)

// tinyCampaign is a campaign small enough to run many times in a test
// yet wide enough (2 mixes × 3 seeds = 6 jobs) to shard meaningfully.
func tinyCampaign() chaos.Config {
	return chaos.Config{
		Seeds: 3, Threads: 3, Cores: 2, Iters: 60,
		Metrics: true,
		Mixes:   chaos.DefaultMixes()[:2],
	}
}

func fleetCfg(workers int) fleet.Config {
	return fleet.Config{
		Workers:          workers,
		HeartbeatTimeout: 2 * time.Second,
		BackoffBase:      2 * time.Millisecond,
		BackoffCap:       10 * time.Millisecond,
	}
}

// campaignWorkers spawns in-process fleet workers that each build
// their own space over cfg and sabotage themselves as storm says, as
// worker processes do from their flags. They cannot share one space:
// every worker runs as worker index 0, and the space pools its
// artifacts per index.
func campaignWorkers(cfg chaos.Config, storm fleet.ChaosConfig) fleet.Spawner {
	return fleet.InProcSpawner(func() fleet.JobSpace { return chaos.NewCampaignSpace(cfg) }, storm)
}

func renderCampaign(t *testing.T, r *chaos.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.Bytes()
}

// TestCampaignFleetMatchesSingleProcess is the fleet's keystone oracle:
// the fleet-assembled campaign report must be byte-identical to the
// single-process engine's at every shard width — and stay so when the
// workers themselves are being crashed, stalled, and truncated, because
// retried jobs are pure functions of their keys. The
// tenant configs pin that the tenant table and per-tenant telemetry
// survive the payload, with and without Metrics.
func TestCampaignFleetMatchesSingleProcess(t *testing.T) {
	tenant := chaos.Config{
		Seeds: 2, Threads: 4, Cores: 2, Iters: 60, Tenants: 2,
		Mixes: chaos.TenantMixes()[:2],
	}
	tenantMetrics := tenant
	tenantMetrics.Metrics = true
	for _, ccfg := range []chaos.Config{tinyCampaign(), tenant, tenantMetrics} {
		want := renderCampaign(t, chaos.Run(ccfg))
		for _, workers := range []int{1, 2, 4} {
			fcfg := fleetCfg(workers)
			rep := fleet.Run(fcfg, chaos.NewCampaignSpace(ccfg), campaignWorkers(ccfg, fleet.ChaosConfig{}))
			if !rep.Complete() {
				t.Fatalf("tenants=%d metrics=%v workers=%d: incomplete: quarantined %v, violations %v",
					ccfg.Tenants, ccfg.Metrics, workers, rep.Quarantined, rep.Violations)
			}
			res, err := chaos.AssembleCampaign(ccfg, rep.Payloads)
			if err != nil {
				t.Fatalf("tenants=%d metrics=%v workers=%d: assemble: %v", ccfg.Tenants, ccfg.Metrics, workers, err)
			}
			if got := renderCampaign(t, res); !bytes.Equal(got, want) {
				t.Errorf("tenants=%d metrics=%v workers=%d: fleet report differs from single-process report\n--- fleet ---\n%s\n--- single ---\n%s",
					ccfg.Tenants, ccfg.Metrics, workers, got, want)
			}
		}
	}
}

func TestCampaignFleetByteIdenticalUnderKillStorm(t *testing.T) {
	ccfg := tinyCampaign()
	want := renderCampaign(t, chaos.Run(ccfg))

	fcfg := fleetCfg(3)
	fcfg.MaxAttempts = 5
	fcfg.HeartbeatTimeout = 3 * fleet.HeartbeatPeriod
	storm := fleet.ChaosConfig{
		Seed: 7, CrashPct: 30, StallPct: 10, TruncPct: 10,
		MaxAttempt: 2, StallMs: 600,
	}
	rep := fleet.Run(fcfg, chaos.NewCampaignSpace(ccfg), campaignWorkers(ccfg, storm))
	if !rep.Complete() {
		t.Fatalf("kill-storm campaign incomplete: quarantined %v, violations %v",
			rep.Quarantined, rep.Violations)
	}
	if rep.Stats.WorkerCrashes == 0 {
		t.Fatal("kill-storm injected no crashes — chaos config not reaching workers")
	}
	res, err := chaos.AssembleCampaign(ccfg, rep.Payloads)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCampaign(t, res); !bytes.Equal(got, want) {
		t.Errorf("kill-storm fleet report differs from single-process report\n--- fleet ---\n%s\n--- single ---\n%s",
			got, want)
	}
}

func TestSoakFleetMatchesSingleProcess(t *testing.T) {
	plain := chaos.SoakConfig{
		Seeds: 2, Pool: 2, Waves: 2, Iters: 10,
		Mixes: chaos.DefaultSoakMixes(2)[:2],
	}
	tenant := plain
	tenant.Tenants = 2
	tenantMetrics := tenant
	tenantMetrics.Metrics = true
	for _, scfg := range []chaos.SoakConfig{plain, tenant, tenantMetrics} {
		var want bytes.Buffer
		chaos.RunSoak(scfg).Render(&want)

		rep := fleet.Run(fleetCfg(2), chaos.NewSoakSpace(scfg),
			fleet.InProcSpawner(func() fleet.JobSpace { return chaos.NewSoakSpace(scfg) }, fleet.ChaosConfig{}))
		if !rep.Complete() {
			t.Fatalf("tenants=%d metrics=%v: soak fleet incomplete: quarantined %v, violations %v",
				scfg.Tenants, scfg.Metrics, rep.Quarantined, rep.Violations)
		}
		res, err := chaos.AssembleSoak(scfg, rep.Payloads)
		if err != nil {
			t.Fatalf("tenants=%d metrics=%v: assemble: %v", scfg.Tenants, scfg.Metrics, err)
		}
		var got bytes.Buffer
		res.Render(&got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("tenants=%d metrics=%v: soak fleet report differs from single-process report\n--- fleet ---\n%s\n--- single ---\n%s",
				scfg.Tenants, scfg.Metrics, got.String(), want.String())
		}
	}
}
