package pmu

import "testing"

// BenchmarkAddEventWatched measures the per-event cost when a counter
// is programmed for the event: dispatch must find and advance it.
func BenchmarkAddEventWatched(b *testing.B) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddEvent(RingUser, EvCycles, 3)
	}
}

// BenchmarkAddEventUnwatched measures the common hot-loop case: the
// event occurs but no programmed counter selects it, so only ground
// truth advances. This path runs several times per simulated
// instruction and dominates interpreter throughput.
func BenchmarkAddEventUnwatched(b *testing.B) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	p.Configure(1, CounterConfig{Event: EvInstructions, CountUser: true, Enabled: true, OverflowBit: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddEvent(RingUser, EvLoads, 1)
	}
}

// BenchmarkAddEventWrongRing: a counter watches the event but filters
// out the ring — must cost the same as unwatched.
func BenchmarkAddEventWrongRing(b *testing.B) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddEvent(RingKernel, EvCycles, 7)
	}
}

// BenchmarkConfigure measures reprogramming one counter the way a
// context switch does: each op programs a slot for the incoming
// thread's event or disables it for the outgoing one, cycling through
// all four slots and several events.
func BenchmarkConfigure(b *testing.B) {
	p := New(DefaultFeatures())
	evs := [...]Event{EvInstructions, EvCycles, EvL1DMiss, EvBranchMiss, EvLLCMiss}
	off := CounterConfig{Enabled: false, OverflowBit: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i & 3
		if i&4 != 0 {
			p.Configure(slot, off)
			continue
		}
		p.Configure(slot, CounterConfig{Event: evs[i%len(evs)], CountUser: true, Enabled: true, OverflowBit: 31})
	}
}
