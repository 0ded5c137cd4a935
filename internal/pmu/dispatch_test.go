package pmu

import (
	"math/rand"
	"testing"
)

// naivePMU mirrors the pre-dispatch-table AddEvent: a linear scan over
// every counter with per-counter filter checks. The dispatch table
// must be observationally identical to it.
type naivePMU struct {
	cfgs    []CounterConfig
	values  []uint64
	pending uint64
	mask    uint64
	truth   [NumEvents][2]uint64
}

func newNaive(f Features) *naivePMU {
	mask := ^uint64(0)
	if f.CounterWidth < 64 {
		mask = (1 << uint(f.CounterWidth)) - 1
	}
	return &naivePMU{
		cfgs:   make([]CounterConfig, f.NumCounters),
		values: make([]uint64, f.NumCounters),
		mask:   mask,
	}
}

func (np *naivePMU) configure(idx int, cfg CounterConfig) {
	np.cfgs[idx] = cfg
	np.pending &^= 1 << uint(idx)
}

func (np *naivePMU) write(idx int, v uint64, writeWidth int) {
	wmask := ^uint64(0)
	if writeWidth < 64 {
		wmask = (1 << uint(writeWidth)) - 1
	}
	np.values[idx] = v & wmask
	np.pending &^= 1 << uint(idx)
}

func (np *naivePMU) addEvent(ring Ring, ev Event, n uint64) {
	if n == 0 {
		return
	}
	np.truth[ev][ring] += n
	for i := range np.cfgs {
		cfg := np.cfgs[i]
		if cfg.Event != ev || !cfg.counts(ring) {
			continue
		}
		before := np.values[i]
		np.values[i] = (before + n) & np.mask
		if ob := cfg.OverflowBit; ob >= 0 && ob < 64 {
			threshold := uint64(1) << uint(ob)
			if (before < threshold && np.values[i] >= threshold) || np.values[i] < before {
				np.pending |= 1 << uint(i)
			}
		}
	}
}

// TestDispatchRebuildOnReconfigure pins that Configure — the single
// mutation point the kernel's context-switch, PMI and group-rotation
// paths all go through — updates the dispatch table.
func TestDispatchRebuildOnReconfigure(t *testing.T) {
	p := New(DefaultFeatures())
	p.Configure(0, CounterConfig{Event: EvLoads, CountUser: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvLoads, 5)
	if got := p.Read(0); got != 5 {
		t.Fatalf("watched event did not advance counter: %d", got)
	}

	// Reprogram to a different event, as group rotation does.
	p.Configure(0, CounterConfig{Event: EvStores, CountUser: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvLoads, 7)
	if got := p.Read(0); got != 5 {
		t.Fatalf("stale dispatch entry: loads advanced a stores counter to %d", got)
	}
	p.AddEvent(RingUser, EvStores, 3)
	if got := p.Read(0); got != 8 {
		t.Fatalf("reprogrammed event did not advance counter: %d", got)
	}

	// Disable, as the context-switch save path does.
	p.Configure(0, CounterConfig{Enabled: false, OverflowBit: -1})
	p.AddEvent(RingUser, EvStores, 100)
	if got := p.Read(0); got != 8 {
		t.Fatalf("disabled counter advanced to %d", got)
	}

	// Ring filters map to separate dispatch rows.
	p.Configure(1, CounterConfig{Event: EvCycles, CountKernel: true, Enabled: true, OverflowBit: -1})
	p.AddEvent(RingUser, EvCycles, 9)
	if got := p.Read(1); got != 0 {
		t.Fatalf("kernel-only counter saw user events: %d", got)
	}
	p.AddEvent(RingKernel, EvCycles, 4)
	if got := p.Read(1); got != 4 {
		t.Fatalf("kernel-only counter missed kernel events: %d", got)
	}
}

// TestDispatchEquivalenceRandomized drives the real PMU and the naive
// reference through an identical random stream of Configure / Write /
// AddEvent operations — the same shapes the kernel's save/restore,
// overflow and multiplexing rotation paths produce — and demands
// identical values, pending masks and ground truth at every step.
func TestDispatchEquivalenceRandomized(t *testing.T) {
	feats := DefaultFeatures()
	p := New(feats)
	np := newNaive(feats)
	rng := rand.New(rand.NewSource(0xd15c)) // deterministic

	randCfg := func() CounterConfig {
		return CounterConfig{
			Event:       Event(rng.Intn(int(NumEvents))),
			CountUser:   rng.Intn(2) == 0,
			CountKernel: rng.Intn(2) == 0,
			Enabled:     rng.Intn(4) != 0,
			OverflowBit: []int{-1, 4, 10, 31}[rng.Intn(4)],
		}
	}

	for step := 0; step < 20_000; step++ {
		switch rng.Intn(10) {
		case 0, 1: // reprogram (context switch in / rotation)
			idx, cfg := rng.Intn(feats.NumCounters), randCfg()
			p.Configure(idx, cfg)
			np.configure(idx, cfg)
		case 2: // restore a saved value
			idx, v := rng.Intn(feats.NumCounters), rng.Uint64()>>uint(rng.Intn(64))
			p.Write(idx, v)
			np.write(idx, v, feats.WriteWidth)
		default: // events, occasionally in large steps
			ring := Ring(rng.Intn(2))
			ev := Event(rng.Intn(int(NumEvents)))
			n := uint64(rng.Intn(3))
			if rng.Intn(20) == 0 {
				n = uint64(rng.Intn(5000))
			}
			p.AddEvent(ring, ev, n)
			np.addEvent(ring, ev, n)
		}

		for i := 0; i < feats.NumCounters; i++ {
			if p.Read(i) != np.values[i] {
				t.Fatalf("step %d: counter %d diverged: dispatch %d, naive %d", step, i, p.Read(i), np.values[i])
			}
		}
		if p.pending != np.pending {
			t.Fatalf("step %d: pending mask diverged: dispatch %#x, naive %#x", step, p.pending, np.pending)
		}
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		for ring := Ring(0); ring < 2; ring++ {
			if p.GroundTruth(ev, ring) != np.truth[ev][ring] {
				t.Fatalf("ground truth diverged for %v/%v", ev, ring)
			}
		}
	}
}

// fullScanWatchers rebuilds the dispatch table's watcher masks from
// scratch with the full-table scan Configure used before it became
// O(1): clear every entry of each counter's bit, then set it in the
// entries its programming selects.
func fullScanWatchers(p *PMU) [2 * int(NumEvents)]uint64 {
	var w [2 * int(NumEvents)]uint64
	for idx := range p.counters {
		bit := uint64(1) << uint(idx)
		for i := range w {
			w[i] &^= bit
		}
		cfg := p.counters[idx].cfg
		if !cfg.Enabled || int(cfg.Event) >= int(NumEvents) {
			continue
		}
		if cfg.CountUser {
			w[cfg.Event] |= bit
		}
		if cfg.CountKernel {
			w[int(NumEvents)+int(cfg.Event)] |= bit
		}
	}
	return w
}

// TestDispatchTableMatchesFullScan drives random reprogramming —
// enable/disable, event changes including out-of-range selectors,
// ring filters, overflow bits — up to the full MaxCounters width, and
// after every call requires each entry's watcher mask to equal a
// from-scratch rebuild.
func TestDispatchTableMatchesFullScan(t *testing.T) {
	for _, n := range []int{1, 4, 8, 63, MaxCounters} {
		f := DefaultFeatures()
		f.NumCounters = n
		p := New(f)
		rng := rand.New(rand.NewSource(int64(n)))
		for step := 0; step < 5000; step++ {
			ev := Event(rng.Intn(int(NumEvents)))
			if rng.Intn(8) == 0 {
				ev = Event(int(NumEvents) + rng.Intn(256-int(NumEvents)))
			}
			idx := rng.Intn(n)
			p.Configure(idx, CounterConfig{
				Event:       ev,
				CountUser:   rng.Intn(2) == 0,
				CountKernel: rng.Intn(2) == 0,
				Enabled:     rng.Intn(3) != 0,
				OverflowBit: []int{-1, 0, 9, 31, 47, 63, 64}[rng.Intn(7)],
			})
			if want := fullScanWatchers(p); p.watcherMasks() != want {
				t.Fatalf("%d counters, step %d (Configure(%d)): watchers %x, full scan %x", n, step, idx, p.watcherMasks(), want)
			}
		}
	}
}

func (p *PMU) watcherMasks() (w [2 * int(NumEvents)]uint64) {
	for i, e := range p.events {
		w[i] = e.watchers
	}
	return w
}
