package spaces

import (
	"bytes"
	"testing"
	"time"

	"limitsim/internal/chaos"
	"limitsim/internal/experiments"
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
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		BackoffBase:      2 * time.Millisecond,
		BackoffCap:       10 * time.Millisecond,
	}
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
// retried and speculated jobs are pure functions of their keys. The
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
		spec, err := CampaignSpec(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			fcfg := fleetCfg(workers)
			rep, err := fleet.Run(fcfg, spec, fleet.InProcSpawner())
			if err != nil {
				t.Fatalf("tenants=%d metrics=%v workers=%d: %v", ccfg.Tenants, ccfg.Metrics, workers, err)
			}
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

	spec, err := CampaignSpec(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fleetCfg(3)
	fcfg.MaxAttempts = 5
	fcfg.HeartbeatTimeout = 150 * time.Millisecond
	fcfg.Chaos = fleet.ChaosConfig{
		Seed: 7, CrashPct: 30, StallPct: 10, TruncPct: 10,
		MaxAttempt: 2, StallMs: 400,
	}
	rep, err := fleet.Run(fcfg, spec, fleet.InProcSpawner())
	if err != nil {
		t.Fatal(err)
	}
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

		spec, err := SoakSpec(scfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fleet.Run(fleetCfg(2), spec, fleet.InProcSpawner())
		if err != nil {
			t.Fatal(err)
		}
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

func TestF2FleetMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("f2 sweep is slow")
	}
	single, err := experiments.RunFig2(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	single.Render(&want)

	spec, err := F2Spec(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleetCfg(4), spec, fleet.InProcSpawner())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("f2 fleet incomplete: quarantined %v, violations %v", rep.Quarantined, rep.Violations)
	}
	res, err := experiments.AssembleF2Payloads(rep.Payloads)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	res.Render(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("f2 fleet report differs from single-process report\n--- fleet ---\n%s\n--- single ---\n%s",
			got.String(), want.String())
	}
}
