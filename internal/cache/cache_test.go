package cache

import "testing"

func TestColdMissThenHit(t *testing.T) {
	h := NewDefault()
	r := h.Access(0x1000)
	if !r.MissL1 || !r.MissL2 || !r.MissLLC {
		t.Errorf("cold access should miss everywhere: %+v", r)
	}
	if r.Cycles != uint64(DefaultConfig().MemoryCycles) {
		t.Errorf("cold access cost %d, want memory latency %d", r.Cycles, DefaultConfig().MemoryCycles)
	}
	r = h.Access(0x1000)
	if r.MissL1 {
		t.Errorf("second access should hit L1: %+v", r)
	}
	if r.Cycles != uint64(DefaultConfig().L1.HitCycles) {
		t.Errorf("L1 hit cost %d, want %d", r.Cycles, DefaultConfig().L1.HitCycles)
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	h := NewDefault()
	h.Access(0x2000)
	if r := h.Access(0x2000 + 56); r.MissL1 {
		t.Error("access within the same 64B line should hit")
	}
	if r := h.Access(0x2000 + 64); !r.MissL1 {
		t.Error("access to the next line should miss")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// Small direct-mapped-ish cache: 2 ways, 2 sets, 64B lines.
	cfg := Config{SizeBytes: 256, LineBytes: 64, Ways: 2, HitCycles: 1}
	c := newLevel(cfg)
	// Three lines mapping to set 0 (stride = nsets*64 = 128).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.access(a)
	c.access(b)
	if !c.access(a) {
		t.Fatal("a should still be resident")
	}
	c.access(d) // evicts LRU = b
	if !c.access(a) {
		t.Error("a (MRU before d) should survive")
	}
	if c.access(b) {
		t.Error("b should have been evicted (LRU)")
	}
}

// TestLLCKeepsSixteenWays fills one LLC set of the default hierarchy
// (lines 512 KiB apart, which also share an L1 and an L2 set) past its
// 16 ways, in ascending order (new lines take the scan-free install)
// and descending (they take the scan), so its chunk widens to the full
// associativity on both paths.
func TestLLCKeepsSixteenWays(t *testing.T) {
	const stride = 512 << 10
	for _, desc := range []bool{false, true} {
		fill := func(n int) *Hierarchy {
			h := NewDefault()
			for i := 0; i < n; i++ {
				if desc {
					h.Access(uint64(16-i) * stride)
				} else {
					h.Access(uint64(i) * stride)
				}
			}
			return h
		}
		first, second := uint64(0), uint64(stride)
		if desc {
			first, second = 16*stride, 15*stride
		}
		if r := fill(16).Access(first); !r.MissL2 || r.MissLLC {
			t.Errorf("descending %v: after 16 lines the first should miss L2 and hit the LLC: %+v", desc, r)
		}
		h := fill(17)
		if r := h.Access(second); r.MissLLC {
			t.Errorf("descending %v: after 17 lines the second should hit the LLC: %+v", desc, r)
		}
		if r := h.Access(first); !r.MissLLC {
			t.Errorf("descending %v: after 17 lines the first should be evicted from the LLC: %+v", desc, r)
		}
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	h := NewDefault()
	// Walk far beyond L1 capacity (32 KiB) but within L2 (256 KiB).
	for addr := uint64(0); addr < 128<<10; addr += 64 {
		h.Access(addr)
	}
	// Re-walk the start: L1 evicted it, L2 should hold it.
	r := h.Access(0)
	if !r.MissL1 {
		t.Error("expected L1 miss after capacity walk")
	}
	if r.MissL2 {
		t.Error("expected L2 hit after 128KiB walk")
	}
}

func TestFlushAll(t *testing.T) {
	h := NewDefault()
	for addr := uint64(0); addr < 4096; addr += 64 {
		h.Access(addr)
	}
	h.FlushAll()
	if r := h.Access(0); !r.MissLLC {
		t.Error("FlushAll should empty every level")
	}
}

func TestMissLatencyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	if !(cfg.L1.HitCycles < cfg.L2.HitCycles &&
		cfg.L2.HitCycles < cfg.LLC.HitCycles &&
		cfg.LLC.HitCycles < cfg.MemoryCycles) {
		t.Error("latencies must increase down the hierarchy")
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{L1: "L1", L2: "L2", LLC: "LLC", Memory: "Memory"} {
		if lv.String() != want {
			t.Errorf("%d renders as %q, want %q", lv, lv.String(), want)
		}
	}
}

func TestNonPowerOfTwoSetsRoundsDown(t *testing.T) {
	// 3 ways * 64B with 384B capacity => 2 sets requested; construction
	// must not panic and must behave as a cache.
	c := newLevel(Config{SizeBytes: 384, LineBytes: 64, Ways: 3, HitCycles: 1})
	if c.access(0) {
		t.Error("first access cannot hit")
	}
	if !c.access(0) {
		t.Error("second access must hit")
	}
}
