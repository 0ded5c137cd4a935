// Package cache models a per-core cache hierarchy: split L1 (only the
// data side is simulated, since the ISA has no instruction fetch
// traffic), a unified L2, and a shared-by-convention LLC. Caches are
// set-associative with LRU replacement.
//
// The hierarchy returns, for each access, the latency in cycles and the
// set of miss events that occurred, which the CPU feeds into the PMU.
// The model is deliberately simple — no coherence traffic, no MSHRs —
// because the reproduced paper's results depend on access *costs* and
// event *counts*, not on detailed memory-system timing.
package cache

import "math/bits"

// Level identifies a cache level for miss reporting.
type Level uint8

// Cache levels.
const (
	L1 Level = iota
	L2
	LLC
	Memory
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case Memory:
		return "Memory"
	}
	return "cache?"
}

// Config describes one cache level.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size, power of two
	Ways      int // associativity
	HitCycles int // latency on hit at this level
}

// Result describes the outcome of one access.
type Result struct {
	// Cycles is the total access latency.
	Cycles uint64
	// MissL1, MissL2, MissLLC report which levels missed.
	MissL1  bool
	MissL2  bool
	MissLLC bool
}

// Sets are grouped into chunks of chunkSets, and a chunk's tag state is
// allocated on first touch: most of the LLC's thousands of sets are
// never touched in a short run. A chunk also stores only as many ways
// per set as its fullest set has needed: materialize makes it one way
// wide, and a miss that would evict a valid tag from the last stored
// way first widens the chunk, doubling its width up to the level's
// associativity. A way past the stored width is invalid, as a zero tag
// is, and a miss only shifts an invalid entry off the end of a narrow
// set, so every hit, miss and eviction is the same as at full width.
//
// FlushAll parks the chunks, and a parked chunk's next touch takes it
// back cleared: a flush costs the chunks touched after it, not every
// chunk the level holds. A chunk keeps its width through a flush, as
// the run that widened it is likely to widen it again, while Reset,
// which starts a new run, parks each chunk one way wide, as a new
// hierarchy would store it; widen spreads the sets in place while the
// chunk's array has room. So flush storms and reset hierarchies
// allocate nothing once a level has reached its footprint, and a reset
// hierarchy stores, and widens, its chunks exactly as a new one.
const (
	chunkSetBits = 6
	chunkSets    = 1 << chunkSetBits
)

// cacheLevel is a single set-associative cache. Tag state lives in
// flat per-chunk arrays: in a chunk w ways wide, set s occupies the
// ways [(s%chunkSets)*w, ...) of chunk s/chunkSets, in LRU order (index
// 0 most recent). Entries store tag+1 so that zero — the state of a
// freshly materialized chunk — means invalid.
type cacheLevel struct {
	cfg       Config
	setMask   uint64
	lineShift uint
	tagShift  uint   // log2(nsets), precomputed off the access path
	hitLat    uint64 // cfg.HitCycles, widened once
	ways      int
	setsShift uint // log2(sets per chunk): a chunk is len(chunk)>>setsShift ways wide
	chunks    [][]uint64
	parked    [][]uint64 // the chunks FlushAll took out, by index; nil before the first flush

	// moved holds one bit per set, one word per chunk, set by every
	// operation that changes the set's MRU way: a miss, an LRU move, an
	// install. Only an L1 of at least chunkSets sets keeps it (nil
	// elsewhere); Hierarchy.AccessLines reads and clears it.
	moved []uint64
}

func newLevel(cfg Config) *cacheLevel {
	lines := cfg.SizeBytes / cfg.LineBytes
	nsets := lines / cfg.Ways
	if nsets < 1 {
		nsets = 1
	}
	// nsets must be a power of two for mask indexing.
	for nsets&(nsets-1) != 0 {
		nsets--
	}
	return &cacheLevel{
		cfg:       cfg,
		setMask:   uint64(nsets - 1),
		lineShift: log2(uint64(cfg.LineBytes)),
		tagShift:  log2(uint64(nsets)),
		hitLat:    uint64(cfg.HitCycles),
		ways:      cfg.Ways,
		setsShift: log2(uint64(min(nsets, chunkSets))),
		chunks:    make([][]uint64, (nsets+chunkSets-1)/chunkSets),
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// materialize installs an all-invalid chunk ci: the parked one,
// cleared at its parked width, or else a new one, one way wide. Kept
// out of line: it runs once per chunk per run or flush, and accessLine
// runs on every cache access.
//
//go:noinline
func (c *cacheLevel) materialize(ci uint64) []uint64 {
	var ch []uint64
	if c.parked != nil {
		ch, c.parked[ci] = c.parked[ci], nil
	}
	if ch != nil {
		clear(ch)
	} else {
		ch = make([]uint64, 1<<c.setsShift)
	}
	c.chunks[ci] = ch
	return ch
}

// widen doubles the width of set si's chunk, up to the level's
// associativity, moving each set's ways to the front of its new slot,
// and returns si's new slot. The sets spread in place, in a new array
// first when the chunk's has no room, last set first, so that no set
// lands on one not yet moved.
func (c *cacheLevel) widen(si uint64) []uint64 {
	ch := c.chunks[si>>chunkSetBits]
	w := len(ch) >> c.setsShift
	nw := min(2*w, c.ways)
	if n := nw << c.setsShift; cap(ch) >= n {
		ch = ch[:n]
	} else {
		ch = append(make([]uint64, 0, n), ch...)[:n]
	}
	for s := 1<<c.setsShift - 1; s >= 0; s-- {
		copy(ch[s*nw:], ch[s*w:s*w+w])
		clear(ch[s*nw+w : (s+1)*nw])
	}
	c.chunks[si>>chunkSetBits] = ch
	lo := (int(si) & (chunkSets - 1)) * nw
	return ch[lo : lo+nw : lo+nw]
}

// access probes the level for addr and installs its line on miss.
// Returns true on hit.
func (c *cacheLevel) access(addr uint64) bool { return c.accessLine(addr >> c.lineShift) }

// accessLine probes the level for line (an address shifted right by
// lineShift) and installs it on miss. Returns true on hit. Loads,
// stores and the lines of bulk kernel walks that Hierarchy.AccessLines
// does not skip all come through here, except for lines the hierarchy
// knows are absent, which take install.
func (c *cacheLevel) accessLine(line uint64) bool {
	si := line & c.setMask
	ch := c.chunks[si>>chunkSetBits]
	if ch == nil {
		ch = c.materialize(si >> chunkSetBits)
	}
	w := len(ch) >> c.setsShift
	lo := (int(si) & (chunkSets - 1)) * w
	ws := ch[lo : lo+w : lo+w]
	tag := (line >> c.tagShift) + 1
	// MRU fast path: a hit in way 0 needs no LRU reordering.
	if ws[0] == tag {
		return true
	}
	c.mark(si)
	for i, t := range ws {
		if t == tag {
			// Move to MRU position.
			copy(ws[1:i+1], ws[:i])
			ws[0] = tag
			return true
		}
	}
	// Miss: evict LRU (last way), install at MRU.
	if ws[w-1] != 0 && w < c.ways {
		ws = c.widen(si)
	}
	copy(ws[1:], ws[:len(ws)-1])
	ws[0] = tag
	return false
}

// install is accessLine for a line the caller knows is in no way of
// its set: the miss path without the scan. It repeats accessLine's set
// lookup rather than share a helper, which would not inline and would
// put a call on every load and store.
func (c *cacheLevel) install(line uint64) {
	si := line & c.setMask
	ch := c.chunks[si>>chunkSetBits]
	if ch == nil {
		ch = c.materialize(si >> chunkSetBits)
	}
	w := len(ch) >> c.setsShift
	lo := (int(si) & (chunkSets - 1)) * w
	ws := ch[lo : lo+w : lo+w]
	if ws[w-1] != 0 && w < c.ways {
		ws = c.widen(si)
	}
	copy(ws[1:], ws[:len(ws)-1])
	ws[0] = (line >> c.tagShift) + 1
	c.mark(si)
}

// mark sets set si's moved bit, if the level keeps them.
func (c *cacheLevel) mark(si uint64) {
	if c.moved != nil {
		c.moved[si>>chunkSetBits] |= 1 << (si & (chunkSets - 1))
	}
}

// movedFrom returns the moved bits of the 64 sets from line's on, bit
// i for set line+i (mod the set count). They span two words at most.
func (c *cacheLevel) movedFrom(line uint64) uint64 {
	si := line & c.setMask
	w, o := si>>chunkSetBits, si&(chunkSets-1)
	return c.moved[w]>>o | c.moved[(w+1)&uint64(len(c.moved)-1)]<<(chunkSets-o)
}

// unmark clears the moved bits of the n sets from line's on.
func (c *cacheLevel) unmark(line uint64, n int) {
	si := line & c.setMask
	w, o := si>>chunkSetBits, si&(chunkSets-1)
	sets := uint64(1)<<n - 1
	c.moved[w] &^= sets << o
	c.moved[(w+1)&uint64(len(c.moved)-1)] &^= sets >> (chunkSets - o)
}

// flushAll invalidates the level: it parks every chunk at its width.
// A level that is never flushed, as in a machine built for one run,
// never allocates parked.
func (c *cacheLevel) flushAll() {
	for ci, ch := range c.chunks {
		if ch != nil {
			if c.parked == nil {
				c.parked = make([][]uint64, len(c.chunks))
			}
			c.parked[ci], c.chunks[ci] = ch, nil
		}
	}
}

// narrow parks every parked chunk one way wide, keeping its array.
func (c *cacheLevel) narrow() {
	for ci, ch := range c.parked {
		if ch != nil {
			c.parked[ci] = ch[:1<<c.setsShift]
		}
	}
}

// Hierarchy is a three-level cache hierarchy plus a memory latency.
type Hierarchy struct {
	l1, l2, llc *cacheLevel
	memCycles   int

	// lastLine is the most recently accessed line number plus one
	// (zero = invalid), with l1Shift/l1Lat copied off *l1. After any
	// access the line is resident at L1's MRU way, so a repeat access
	// is an L1 hit that moves no LRU state and raises no events —
	// Access answers it inline with one compare.
	lastLine uint64
	l1Shift  uint
	l1Lat    uint64

	// fresh is one past the highest line number accessed since the
	// hierarchy was built or last flushed. Lines enter a level only
	// through an access, so a line at or above it is in no level: it
	// misses all three, and installing it at MRU needs no scan of their
	// ways. That holds only when every level numbers lines alike;
	// otherwise NewHierarchy pins fresh at freshPinned, where no line
	// reaches it.
	fresh uint64

	// [mruLo, mruHi) is the L1 line range the last line-stride walks
	// left at L1's MRU way (empty when mruLo == mruHi). Invariant: every
	// line in it is still in its set's MRU way unless the set's moved
	// bit is set. It spans at most 64 lines, no more than L1's sets, so
	// no set holds two of them.
	mruLo, mruHi uint64
}

// HierarchyConfig configures a Hierarchy.
type HierarchyConfig struct {
	L1, L2, LLC  Config
	MemoryCycles int
}

// DefaultConfig returns a hierarchy resembling a 2011-era x86 core:
// 32 KiB 8-way L1 (4 cycles), 256 KiB 8-way L2 (12 cycles), 8 MiB
// 16-way LLC (40 cycles), 200-cycle memory.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:           Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitCycles: 4},
		L2:           Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, HitCycles: 12},
		LLC:          Config{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, HitCycles: 40},
		MemoryCycles: 200,
	}
}

// NewHierarchy builds a hierarchy from the config.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		l1:        newLevel(cfg.L1),
		l2:        newLevel(cfg.L2),
		llc:       newLevel(cfg.LLC),
		memCycles: cfg.MemoryCycles,
	}
	h.l1Shift = h.l1.lineShift
	h.l1Lat = h.l1.hitLat
	if h.l1.setMask >= chunkSets-1 {
		h.l1.moved = make([]uint64, len(h.l1.chunks))
	}
	if h.l2.lineShift != h.l1Shift || h.llc.lineShift != h.l1Shift {
		h.fresh = freshPinned
	}
	return h
}

// freshPinned is the cold-line mark of a hierarchy whose levels number
// lines differently: no line reaches it, so every line scans.
const freshPinned = ^uint64(0)

// NewDefault builds a hierarchy with DefaultConfig.
func NewDefault() *Hierarchy { return NewHierarchy(DefaultConfig()) }

// Access simulates a load or store to addr and returns latency and miss
// events. Stores are write-allocate and cost the same as loads in this
// model. Small enough to inline: the repeat-line case never leaves the
// caller.
func (h *Hierarchy) Access(addr uint64) Result {
	if addr>>h.l1Shift+1 == h.lastLine {
		return Result{Cycles: h.l1Lat}
	}
	return h.accessSlow(addr)
}

func (h *Hierarchy) accessSlow(addr uint64) Result {
	line := addr >> h.l1Shift
	h.lastLine = line + 1
	if line >= h.fresh {
		h.installFresh(line)
		return Result{Cycles: uint64(h.memCycles), MissL1: true, MissL2: true, MissLLC: true}
	}
	if h.l1.access(addr) {
		return Result{Cycles: h.l1.hitLat}
	}
	r := Result{MissL1: true}
	if h.l2.access(addr) {
		r.Cycles = h.l2.hitLat
		return r
	}
	r.MissL2 = true
	if h.llc.access(addr) {
		r.Cycles = h.llc.hitLat
		return r
	}
	r.MissLLC = true
	r.Cycles = uint64(h.memCycles)
	return r
}

// AccessLines simulates n loads at base, base+stride, ...,
// base+(n-1)*stride and returns the summed latency and per-level miss
// counts: exactly n Access calls, same LRU updates, same lastLine
// state, same sums. The kernel's per-switch cache pollution is one
// call.
//
// A walk at L1's line stride of at most 64 lines, on an L1 that keeps
// moved bits and without address wrap, first counts as L1 hits the
// lines that are in [mruLo, mruHi) and whose sets have not moved: each
// is in its set's MRU way, where Access would hit and change nothing
// but lastLine. Every other line runs Access, in walk order. The walk
// then leaves all its lines at MRU in distinct sets, so it clears
// their moved bits and becomes the range, joined with the old range
// while the two touch and span at most 64 lines.
func (h *Hierarchy) AccessLines(base, stride uint64, n int) (cycles, missL1, missL2, missLLC uint64) {
	var t tally
	if h.l1.moved == nil || stride != 1<<h.l1Shift || n < 1 || n > 64 || base+uint64(n-1)*stride < base {
		for i := 0; i < n; i++ {
			t.add(h.Access(base + uint64(i)*stride))
		}
		return t.cycles, t.missL1, t.missL2, t.missLLC
	}
	line := base >> h.l1Shift
	var skip uint64 // bit i: line+i is at L1's MRU way
	if lo, hi := max(line, h.mruLo), min(line+uint64(n), h.mruHi); lo < hi {
		in := (uint64(1)<<(hi-lo) - 1) << (lo - line)
		skip = in &^ h.l1.movedFrom(line)
	}
	t.cycles = uint64(bits.OnesCount64(skip)) * h.l1Lat
	for todo := (uint64(1)<<n - 1) &^ skip; todo != 0; todo &= todo - 1 {
		t.add(h.Access(base + uint64(bits.TrailingZeros64(todo))*stride))
	}
	h.l1.unmark(line, n)
	lo, hi := line, line+uint64(n)
	if h.mruLo <= hi && lo <= h.mruHi && max(hi, h.mruHi)-min(lo, h.mruLo) <= 64 {
		lo, hi = min(lo, h.mruLo), max(hi, h.mruHi)
	}
	h.mruLo, h.mruHi = lo, hi
	h.lastLine = line + uint64(n)
	return t.cycles, t.missL1, t.missL2, t.missLLC
}

// tally sums a walk's Results.
type tally struct{ cycles, missL1, missL2, missLLC uint64 }

func (t *tally) add(r Result) {
	t.cycles += r.Cycles
	if r.MissL1 {
		t.missL1++
	}
	if r.MissL2 {
		t.missL2++
	}
	if r.MissLLC {
		t.missLLC++
	}
}

// installFresh installs line, at or above fresh, in every level and
// raises fresh past it.
func (h *Hierarchy) installFresh(line uint64) {
	h.fresh = line + 1
	h.l1.install(line)
	h.l2.install(line)
	h.llc.install(line)
}

// FlushAll invalidates the entire hierarchy, which then answers every
// access as NewHierarchy's does. The levels park their chunks at their
// widths, to be cleared on their next touch (see chunkSets). A flushed
// hierarchy holds no line, so the cold-line mark falls to 0 unless
// NewHierarchy pinned it.
func (h *Hierarchy) FlushAll() {
	h.lastLine = 0
	h.mruLo, h.mruHi = 0, 0
	if h.fresh != freshPinned {
		h.fresh = 0
	}
	h.l1.flushAll()
	h.l2.flushAll()
	h.llc.flushAll()
	clear(h.l1.moved)
}

// Reset returns the hierarchy to the state NewHierarchy built, keeping
// its storage: FlushAll, with every chunk parked one way wide, so the
// next run stores and widens its chunks as a new hierarchy would.
func (h *Hierarchy) Reset() {
	h.FlushAll()
	h.l1.narrow()
	h.l2.narrow()
	h.llc.narrow()
}
