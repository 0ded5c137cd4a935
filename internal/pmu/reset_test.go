package pmu

import (
	"reflect"
	"testing"
)

// dirty drives p through every kind of state Reset must clear: counter
// programming (reprogrammed once), watched and unwatched adds in both
// rings, written values, pending overflow bits, and an open retirement
// deferral window.
func dirty(t *testing.T, p *PMU) {
	t.Helper()
	p.Configure(0, CounterConfig{Event: EvInstructions, CountUser: true, Enabled: true, OverflowBit: 40})
	p.Configure(1, CounterConfig{Event: EvCycles, CountUser: true, CountKernel: true, Enabled: true, OverflowBit: -1})
	p.Configure(2, CounterConfig{Event: EvLoads, CountUser: true, Enabled: true, OverflowBit: 3})
	p.Configure(3, CounterConfig{Event: EvStores, CountKernel: true, Enabled: true, OverflowBit: 2})
	p.Write(1, 12345)
	for range 50 {
		p.AddRetire(1, 3)
		p.AddUser(EvLoads, 1)
		p.AddKernel(EvStores, 2)
		p.AddEvent(RingKernel, EvBranches, 1)
	}
	p.Configure(2, CounterConfig{Event: EvL1DMiss, CountUser: true, Enabled: true, OverflowBit: 1})
	p.AddUser(EvL1DMiss, 5)
	p.AddRetire(1, 2)
	if p.defRetire == 0 || p.pending == 0 {
		t.Fatalf("set-up left no deferral window (%#x) or no pending bit (%#x)", p.defRetire, p.pending)
	}
}

// Reset returns a used PMU to exactly what New builds, for the same
// features, more counters and fewer, and a reset PMU then counts as a
// new one does.
func TestResetEqualsNew(t *testing.T) {
	base := DefaultFeatures()
	more := Enhanced64Bit()
	more.NumCounters = 8
	less := EnhancedDestructive()
	less.NumCounters = 2
	for _, f := range []Features{base, more, less} {
		p := New(base)
		dirty(t, p)
		p.Reset(f)
		if want := New(f); !reflect.DeepEqual(p, want) {
			t.Fatalf("Reset(%+v) left %+v, New builds %+v", f, p, want)
		}
		if f.NumCounters < 4 {
			continue
		}
		want := New(f)
		dirty(t, p)
		dirty(t, want)
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("after Reset(%+v), the same calls left %+v, on a new PMU %+v", f, p, want)
		}
	}
}
