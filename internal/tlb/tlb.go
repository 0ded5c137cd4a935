// Package tlb models a two-level data TLB: a small fully-associative
// L1 DTLB backed by a larger set-associative STLB, with a fixed
// page-walk cost on a full miss. Misses feed the PMU's dTLB events; a
// page walk also stalls the access by WalkCycles.
//
// The model is deliberately simple (no PCIDs, no huge pages): the
// reproduced paper's workloads only need TLB pressure to be *visible*
// to the counters, not modeled in detail.
package tlb

// Result describes one translation.
type Result struct {
	// Cycles is the added translation latency (0 on an L1 hit).
	Cycles uint64
	// MissL1 and MissL2 report which levels missed.
	MissL1 bool
	MissL2 bool
}

// Config sizes the TLB.
type Config struct {
	L1Entries int // fully associative
	L2Entries int
	L2Ways    int
	L2Cycles  int // latency when the STLB hits
	WalkBase  int // page-walk latency on a full miss
	PageBits  uint
}

// DefaultConfig approximates a 2011 x86 data TLB: 64-entry DTLB,
// 512-entry 4-way STLB, 7-cycle STLB hit, 30-cycle walk, 4 KiB pages.
func DefaultConfig() Config {
	return Config{
		L1Entries: 64,
		L2Entries: 512,
		L2Ways:    4,
		L2Cycles:  7,
		WalkBase:  30,
		PageBits:  12,
	}
}

// TLB is one core's data TLB. Entries store page+1 so that zero means
// invalid; both levels keep ways in LRU order (index 0 = MRU). The L2
// is one flat array — set s occupies [s*ways, (s+1)*ways) — because
// every machine.New builds one TLB per core and per-set slice
// allocations add up.
type TLB struct {
	cfg      Config
	pageBits uint // cfg.PageBits, hoisted for the Translate fast path

	l1 []uint64

	l2Sets int
	l2Ways int
	l2     []uint64
}

// New builds a TLB.
func New(cfg Config) *TLB {
	sets := cfg.L2Entries / cfg.L2Ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets--
	}
	return &TLB{
		cfg:      cfg,
		pageBits: cfg.PageBits,
		l1:       make([]uint64, cfg.L1Entries),
		l2Sets:   sets,
		l2Ways:   cfg.L2Ways,
		l2:       make([]uint64, sets*cfg.L2Ways),
	}
}

// NewDefault builds a TLB with DefaultConfig.
func NewDefault() *TLB { return New(DefaultConfig()) }

// Translate looks up the page containing addr, filling both levels on
// a miss and returning the added latency. Small enough to inline: the
// MRU-hit case — a hit in way 0 needs no LRU reordering, and spatial
// locality makes it the dominant outcome — never leaves the caller.
func (t *TLB) Translate(addr uint64) Result {
	if t.l1[0] == addr>>t.pageBits+1 {
		return Result{}
	}
	return t.translateSlow(addr)
}

func (t *TLB) translateSlow(addr uint64) Result {
	tag := addr>>t.pageBits + 1
	if t.l1Lookup(tag) {
		return Result{}
	}
	r := Result{MissL1: true}
	t.l1Insert(tag)
	if t.l2Lookup(tag) {
		r.Cycles = uint64(t.cfg.L2Cycles)
		return r
	}
	r.MissL2 = true
	t.l2Insert(tag)
	r.Cycles = uint64(t.cfg.L2Cycles + t.cfg.WalkBase)
	return r
}

func (t *TLB) l1Lookup(tag uint64) bool {
	for i, v := range t.l1 {
		if v == tag {
			copy(t.l1[1:i+1], t.l1[:i])
			t.l1[0] = tag
			return true
		}
	}
	return false
}

func (t *TLB) l1Insert(tag uint64) {
	copy(t.l1[1:], t.l1[:len(t.l1)-1])
	t.l1[0] = tag
}

// l2Set returns the ways of the set indexed by the raw page number
// (tag-1, so the set index matches the untranslated encoding).
func (t *TLB) l2Set(tag uint64) []uint64 {
	s := int(tag-1) & (t.l2Sets - 1)
	lo := s * t.l2Ways
	return t.l2[lo : lo+t.l2Ways : lo+t.l2Ways]
}

func (t *TLB) l2Lookup(tag uint64) bool {
	ws := t.l2Set(tag)
	for i, v := range ws {
		if v == tag {
			copy(ws[1:i+1], ws[:i])
			ws[0] = tag
			return true
		}
	}
	return false
}

func (t *TLB) l2Insert(tag uint64) {
	ws := t.l2Set(tag)
	copy(ws[1:], ws[:len(ws)-1])
	ws[0] = tag
}

// FlushAll empties the TLB (address-space switch without tagged
// entries).
func (t *TLB) FlushAll() {
	for i := range t.l1 {
		t.l1[i] = 0
	}
	for i := range t.l2 {
		t.l2[i] = 0
	}
}
