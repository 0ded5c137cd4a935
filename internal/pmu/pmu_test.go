package pmu

import (
	"testing"
	"testing/quick"
)

func userCounter(ev Event, overflowBit int) CounterConfig {
	return CounterConfig{Event: ev, CountUser: true, Enabled: true, OverflowBit: overflowBit}
}

func TestCountsOnlyConfiguredEvent(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, userCounter(EvLoads, -1))
	p.AddEvent(RingUser, EvLoads, 3)
	p.AddEvent(RingUser, EvStores, 5)
	if got := p.Read(0); got != 3 {
		t.Errorf("counter 0 = %d, want 3", got)
	}
}

func TestRingFilter(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	p.Configure(1, CounterConfig{Event: EvCycles, CountKernel: true, Enabled: true, OverflowBit: -1})
	p.Configure(2, CounterConfig{Event: EvCycles, CountUser: true, CountKernel: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvCycles, 10)
	p.AddEvent(RingKernel, EvCycles, 7)
	if got := p.Read(0); got != 10 {
		t.Errorf("user-only counter = %d, want 10", got)
	}
	if got := p.Read(1); got != 7 {
		t.Errorf("kernel-only counter = %d, want 7", got)
	}
	if got := p.Read(2); got != 17 {
		t.Errorf("both-rings counter = %d, want 17", got)
	}
}

func TestDisabledCounterStays(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvCycles, CountUser: true, Enabled: false, OverflowBit: -1})
	p.AddEvent(RingUser, EvCycles, 5)
	if got := p.Read(0); got != 0 {
		t.Errorf("disabled counter advanced to %d", got)
	}
}

func TestWriteWidthTruncation(t *testing.T) {
	p := New(DefaultFeatures()) // WriteWidth 31
	p.Write(0, 1<<33|42)
	if got := p.Read(0); got != 42 {
		t.Errorf("write should keep only low 31 bits: got %#x, want 42", got)
	}
	if p.WriteLimit() != 1<<31 {
		t.Errorf("WriteLimit %#x, want 2^31", p.WriteLimit())
	}
}

func Test64BitWrites(t *testing.T) {
	p := New(Enhanced64Bit())
	v := uint64(1<<52 | 99)
	p.Write(0, v)
	if got := p.Read(0); got != v {
		t.Errorf("e1 write lost bits: got %#x, want %#x", got, v)
	}
}

func TestCounterWidthWrap(t *testing.T) {
	p := New(DefaultFeatures()) // 48-bit counters
	p.Configure(0, userCounter(EvCycles, -1))
	p.Write(0, (1<<31)-1)
	// Push past 48 bits by accumulating.
	for i := 0; i < 10; i++ {
		p.AddEvent(RingUser, EvCycles, 1<<44)
	}
	if got := p.Read(0); got>>48 != 0 {
		t.Errorf("counter exceeded its 48-bit width: %#x", got)
	}
}

func TestOverflowCrossingDetection(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, userCounter(EvCycles, 4)) // threshold 16
	p.AddEvent(RingUser, EvCycles, 15)
	if p.HasPending() {
		t.Fatal("no overflow before crossing")
	}
	p.AddEvent(RingUser, EvCycles, 1)
	if !p.HasPending() {
		t.Fatal("crossing the threshold must raise an interrupt")
	}
	if mask := p.TakePendingOverflows(); mask != 1 {
		t.Errorf("pending mask %b, want 1", mask)
	}
	if p.HasPending() {
		t.Error("TakePendingOverflows must clear the pending set")
	}
	// Staying above the threshold must not re-raise.
	p.AddEvent(RingUser, EvCycles, 1)
	if p.HasPending() {
		t.Error("already-overflowed counter re-raised without re-arming")
	}
}

func TestOverflowBigStepCrossing(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, userCounter(EvCycles, 10)) // threshold 1024
	p.AddEvent(RingUser, EvCycles, 5000)      // single large step across
	if !p.HasPending() {
		t.Error("large single-step crossing must raise an interrupt")
	}
}

func TestWriteClearsPending(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, userCounter(EvCycles, 4))
	p.AddEvent(RingUser, EvCycles, 20)
	p.Write(0, 0)
	if p.HasPending() {
		t.Error("re-arming write must clear pending overflow")
	}
}

func TestConfigureClearsPendingForThatCounterOnly(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, userCounter(EvCycles, 4))
	p.Configure(1, userCounter(EvCycles, 4))
	p.AddEvent(RingUser, EvCycles, 20)
	p.Configure(0, userCounter(EvLoads, 4))
	if mask := p.TakePendingOverflows(); mask != 2 {
		t.Errorf("mask %b, want only counter 1 pending", mask)
	}
}

func TestDestructiveRead(t *testing.T) {
	p := New(EnhancedDestructive())
	p.Configure(0, userCounter(EvCycles, -1))
	p.AddEvent(RingUser, EvCycles, 123)
	if got := p.ReadAndReset(0); got != 123 {
		t.Errorf("destructive read %d, want 123", got)
	}
	if got := p.Read(0); got != 0 {
		t.Errorf("counter after destructive read %d, want 0", got)
	}
}

func TestDestructiveReadPanicsWithoutFeature(t *testing.T) {
	p := New(DefaultFeatures())
	defer func() {
		if recover() == nil {
			t.Error("destructive read without the feature must panic")
		}
	}()
	p.ReadAndReset(0)
}

func TestGroundTruthUnaffectedByProgramming(t *testing.T) {
	p := New(DefaultFeatures())
	p.AddEvent(RingUser, EvL1DMiss, 4)
	p.AddEvent(RingKernel, EvL1DMiss, 2)
	if got := p.GroundTruth(EvL1DMiss, RingUser); got != 4 {
		t.Errorf("user ground truth %d, want 4", got)
	}
	if got := p.GroundTruthTotal(EvL1DMiss); got != 6 {
		t.Errorf("total ground truth %d, want 6", got)
	}
}

func TestCounterSumInvariant(t *testing.T) {
	// Property: a both-rings counter always equals ground truth total
	// (modulo width), regardless of the event mix.
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvInstructions, CountUser: true, CountKernel: true, Enabled: true, OverflowBit: -1})
	f := func(deltas []uint16, kernel bool) bool {
		for _, d := range deltas {
			ring := RingUser
			if kernel {
				ring = RingKernel
			}
			p.AddEvent(ring, EvInstructions, uint64(d))
			kernel = !kernel
		}
		return p.Read(0) == p.GroundTruthTotal(EvInstructions)&((1<<48)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIndexBoundsPanic(t *testing.T) {
	p := New(DefaultFeatures())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range counter index must panic")
		}
	}()
	p.Read(99)
}

func TestEventAndRingStrings(t *testing.T) {
	if EvCycles.String() != "cycles" || EvLLCMiss.String() != "llc-miss" {
		t.Error("event names wrong")
	}
	if RingUser.String() != "user" || RingKernel.String() != "kernel" {
		t.Error("ring names wrong")
	}
}

func TestFeaturePresets(t *testing.T) {
	if f := Enhanced64Bit(); f.CounterWidth != 64 || f.WriteWidth != 64 {
		t.Errorf("e1 preset wrong: %+v", f)
	}
	if f := EnhancedDestructive(); !f.DestructiveReads {
		t.Errorf("e2 preset wrong: %+v", f)
	}
	if f := EnhancedHWVirtualization(); !f.HardwareVirtualization {
		t.Errorf("e3 preset wrong: %+v", f)
	}
}

func TestAddEventZeroIsFree(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, userCounter(EvCycles, 0)) // threshold 1: any event overflows
	p.AddEvent(RingUser, EvCycles, 0)
	if p.HasPending() || p.Read(0) != 0 {
		t.Error("zero-count AddEvent must be a no-op")
	}
}
