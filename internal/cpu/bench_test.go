package cpu

import (
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// benchStep measures Core.Step on a one-or-two-instruction loop of the
// given shape, isolating the interpreter's per-instruction cost for
// one opcode class. The PMU carries the case-study counter mix (one
// user-cycles counter) so dispatch cost is realistic, not best-case.
func benchStep(b *testing.B, body func(bb *isa.Builder)) {
	bb := isa.NewBuilder()
	bb.Label("top")
	body(bb)
	bb.Jmp("top")
	prog := bb.MustBuild()

	core := NewCore(0, pmu.DefaultFeatures())
	core.PMU.Configure(0, pmu.CounterConfig{Event: pmu.EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	sp := mem.NewSpace()
	base := sp.AllocWords(1024)
	ctx := &Context{Prog: prog, Mem: sp}
	ctx.Regs[isa.R1] = base
	ctx.SeedRNG(1)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := core.Step(ctx); res.Trap != TrapNone {
			b.Fatalf("trap %v: %s", res.Trap, res.Fault)
		}
	}
}

func BenchmarkStepALU(b *testing.B) {
	benchStep(b, func(bb *isa.Builder) { bb.Add(isa.R2, isa.R2, isa.R3) })
}

func BenchmarkStepLoad(b *testing.B) {
	benchStep(b, func(bb *isa.Builder) { bb.Load(isa.R2, isa.R1, 0) })
}

func BenchmarkStepStore(b *testing.B) {
	benchStep(b, func(bb *isa.Builder) { bb.Store(isa.R1, 0, isa.R2) })
}

func BenchmarkStepBranch(b *testing.B) {
	benchStep(b, func(bb *isa.Builder) { bb.Br(isa.CondEQ, isa.R2, isa.R3, "top") })
}

func BenchmarkStepAtomic(b *testing.B) {
	benchStep(b, func(bb *isa.Builder) { bb.XAdd(isa.R2, isa.R1, isa.R3) })
}

// BenchmarkKernelCachePollution measures the cache side of one
// simulated context switch: a 32-line kernel walk over a region that
// slides one line per call, as switchTo's is, on a warmed core whose
// user footprint the walk competes with.
func BenchmarkKernelCachePollution(b *testing.B) {
	core := NewCore(0, pmu.DefaultFeatures())
	for a := uint64(0); a < 64<<10; a += 64 {
		core.Caches.Access(a)
	}
	base := uint64(0xffff_8000_0000_0000)
	for i := 0; i < 1024; i++ {
		base += 64
		core.KernelCachePollution(base, 32)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base += 64
		core.KernelCachePollution(base, 32)
	}
}
