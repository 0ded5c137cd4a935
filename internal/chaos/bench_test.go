package chaos

import (
	"testing"

	"limitsim/internal/faultinject"
	"limitsim/internal/invariant"
)

// BenchmarkCampaignSetupFresh measures what every run used to pay
// before worker pooling: assemble the workload (program, memory image,
// counter tables, delta buffers), a fresh invariant checker, and a
// fresh injector.
func BenchmarkCampaignSetupFresh(b *testing.B) {
	cfg := Config{}.WithDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := buildWorkload(cfg)
		chk := invariant.New(w.regions)
		inj := faultinject.New(faultinject.Config{})
		inj.SetRegions(w.regions)
		inj.SetCores(cfg.Cores)
		_ = chk
	}
}

// BenchmarkCampaignSetupPooled measures the pooled path a worker pays
// per run instead: restore the memory snapshot and reset the checker
// and injector in place. Allocations per op should be near zero.
func BenchmarkCampaignSetupPooled(b *testing.B) {
	cfg := Config{}.WithDefaults()
	ws := newCampaignWorker(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.w.space.Restore(ws.snap)
		ws.chk.Reset()
		ws.inj.Reset(faultinject.Config{})
	}
}

// BenchmarkSoakSetupFresh / Pooled are the lifecycle-engine analogues:
// the churn workload build is the dominant per-run cost the soak
// worker pool avoids.
func BenchmarkSoakSetupFresh(b *testing.B) {
	cfg := SoakConfig{}.WithDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := newSoakWorker(cfg)
		_ = ws
	}
}

func BenchmarkSoakSetupPooled(b *testing.B) {
	cfg := SoakConfig{}.WithDefaults()
	ws := newSoakWorker(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.w.Space.Restore(ws.snap)
		ws.chk.Reset()
		ws.inj.Reset(faultinject.Config{})
	}
}
