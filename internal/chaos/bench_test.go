package chaos

import (
	"testing"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
	"limitsim/internal/machine"
	"limitsim/internal/trace"
)

// BenchmarkCampaignSetupFresh measures what every run would pay
// without worker pooling: assemble the workload (program, memory
// image, counter tables, delta buffers), a fresh invariant checker and
// injector, and a new machine and trace ring.
func BenchmarkCampaignSetupFresh(b *testing.B) {
	cfg := Config{}.WithDefaults()
	mc := machineConfig(RunSeed(0, 0), cfg.Cores, cfg.WriteWidth, cfg.Tenants)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := buildWorkload(cfg)
		chk := invariant.New(w.regions)
		inj := faultinject.New(faultinject.Config{})
		inj.SetRegions(w.regions)
		inj.SetCores(cfg.Cores)
		m := machine.New(mc)
		m.Kern.SetTracer(trace.NewBuffer(traceEvents))
		_ = chk
	}
}

// BenchmarkCampaignSetupPooled measures the pooled path a worker pays
// per run instead, harness.start: restore the memory snapshot, reset
// the machine and trace ring, and reset and attach the checker and
// injector. The reset machine builds only its kernel.
func BenchmarkCampaignSetupPooled(b *testing.B) {
	cfg := Config{}.WithDefaults()
	mc := machineConfig(RunSeed(0, 0), cfg.Cores, cfg.WriteWidth, cfg.Tenants)
	ws := newCampaignWorker(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.start(mc, faultinject.Config{})
	}
}

// BenchmarkSoakSetupFresh / Pooled are the lifecycle-engine analogues:
// the churn workload build is the dominant per-run cost the soak
// worker pool avoids.
func BenchmarkSoakSetupFresh(b *testing.B) {
	cfg := SoakConfig{}.WithDefaults()
	mc := machineConfig(RunSeed(0, 0), cfg.Cores, cfg.WriteWidth, cfg.Tenants)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := newSoakWorker(cfg)
		m := machine.New(mc)
		m.Kern.SetTracer(trace.NewBuffer(traceEvents))
		_ = ws
	}
}

func BenchmarkSoakSetupPooled(b *testing.B) {
	cfg := SoakConfig{}.WithDefaults()
	mc := machineConfig(RunSeed(0, 0), cfg.Cores, cfg.WriteWidth, cfg.Tenants)
	ws := newSoakWorker(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.start(mc, faultinject.Config{})
	}
}
