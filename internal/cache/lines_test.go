package cache

import (
	"slices"
	"testing"
)

// fuzzConfigs are the hierarchies FuzzAccessLines draws from: the
// default, whose 64 L1 sets keep their moved bits in one word; a tiny
// one whose levels have 1–2 sets of 2 ways (every walk thrashes); one
// whose levels use different line sizes, so each level derives its own
// line number from the same address; one whose associativities (3, 6
// and 12 ways) are not powers of two, so a chunk widens to a width
// below its doubling; and one whose L1 has 128 sets of 2 ways, so a
// walk's sets straddle two moved words.
var fuzzConfigs = []HierarchyConfig{
	DefaultConfig(),
	{
		L1:           Config{SizeBytes: 128, LineBytes: 64, Ways: 2, HitCycles: 4},
		L2:           Config{SizeBytes: 256, LineBytes: 64, Ways: 2, HitCycles: 12},
		LLC:          Config{SizeBytes: 256, LineBytes: 64, Ways: 2, HitCycles: 40},
		MemoryCycles: 200,
	},
	{
		L1:           Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, HitCycles: 3},
		L2:           Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitCycles: 9},
		LLC:          Config{SizeBytes: 64 << 10, LineBytes: 128, Ways: 4, HitCycles: 30},
		MemoryCycles: 150,
	},
	{
		L1:           Config{SizeBytes: 3 * 64 * 4, LineBytes: 64, Ways: 3, HitCycles: 4},
		L2:           Config{SizeBytes: 6 * 64 * 16, LineBytes: 64, Ways: 6, HitCycles: 12},
		LLC:          Config{SizeBytes: 12 * 64 * 256, LineBytes: 64, Ways: 12, HitCycles: 40},
		MemoryCycles: 200,
	},
	{
		L1:           Config{SizeBytes: 2 * 64 * 128, LineBytes: 64, Ways: 2, HitCycles: 4},
		L2:           Config{SizeBytes: 4 * 64 * 256, LineBytes: 64, Ways: 4, HitCycles: 12},
		LLC:          Config{SizeBytes: 8 * 64 * 1024, LineBytes: 64, Ways: 8, HitCycles: 40},
		MemoryCycles: 200,
	},
}

// hierarchy is what the fuzz arms drive: a Hierarchy or the reference.
type hierarchy interface {
	Access(addr uint64) Result
	FlushAll()
}

// perAccess hides a Hierarchy's AccessLines, so replay walks it as
// Access calls.
type perAccess struct{ hierarchy }

// refLevel is the reference model of one level: a plain slice of Ways
// line numbers (plus one, zero invalid) per set, most recent first,
// with no chunks and no stored widths. A miss shifts every way down
// and drops the last.
type refLevel struct {
	lineBytes, nsets uint64
	ways             int
	hit              uint64
	sets             map[uint64][]uint64
}

func newRefLevel(c Config) *refLevel {
	nsets := uint64(1)
	for nsets*2 <= uint64(c.SizeBytes/c.LineBytes/c.Ways) {
		nsets *= 2
	}
	return &refLevel{uint64(c.LineBytes), nsets, c.Ways, uint64(c.HitCycles), map[uint64][]uint64{}}
}

// access reports whether addr's line is resident and moves it, or
// installs it, at the front of its set.
func (r *refLevel) access(addr uint64) bool {
	line := addr / r.lineBytes
	set := r.sets[line%r.nsets]
	if set == nil {
		set = make([]uint64, r.ways)
		r.sets[line%r.nsets] = set
	}
	i := slices.Index(set, line+1)
	hit := i >= 0
	if !hit {
		i = r.ways - 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = line + 1
	return hit
}

// refHierarchy is three refLevels probed in order, without the
// repeat-line shortcut or the high-water mark.
type refHierarchy struct {
	l1, l2, llc *refLevel
	mem         uint64
}

func newRef(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{newRefLevel(cfg.L1), newRefLevel(cfg.L2), newRefLevel(cfg.LLC), uint64(cfg.MemoryCycles)}
}

func (r *refHierarchy) Access(addr uint64) Result {
	switch {
	case r.l1.access(addr):
		return Result{Cycles: r.l1.hit}
	case r.l2.access(addr):
		return Result{Cycles: r.l2.hit, MissL1: true}
	case r.llc.access(addr):
		return Result{Cycles: r.llc.hit, MissL1: true, MissL2: true}
	}
	return Result{Cycles: r.mem, MissL1: true, MissL2: true, MissLLC: true}
}

func (r *refHierarchy) FlushAll() {
	for _, lv := range []*refLevel{r.l1, r.l2, r.llc} {
		clear(lv.sets)
	}
}

// replay applies a byte-coded access history: every three bytes are
// one operation — a FlushAll, an access near base or anywhere in a
// 4 MiB window, or a walk of 0–69 lines at a 64-byte stride from up
// to 128 lines either side of base.
// A *Hierarchy walks through AccessLines; any other hierarchy walks as
// Access calls.
func replay(h hierarchy, hist []byte, base uint64) {
	for ; len(hist) >= 3; hist = hist[3:] {
		v := uint64(hist[1]) | uint64(hist[2])<<8
		switch hist[0] % 16 {
		case 0:
			h.FlushAll()
		case 2, 3, 4, 5, 8:
			h.Access(base + v<<3)
		case 6, 7:
			start, n := base+uint64(int8(hist[2]))*64, int(hist[1]%70)
			if b, ok := h.(*Hierarchy); ok {
				b.AccessLines(start, 64, n)
			} else {
				walk(h, start, 64, n)
			}
		default:
			h.Access(v << 6)
		}
	}
}

// walk is AccessLines spelled as n Access calls.
func walk(h hierarchy, base, stride uint64, n int) (sums [4]uint64) {
	for i := 0; i < n; i++ {
		r := h.Access(base + uint64(i)*stride)
		sums[0] += r.Cycles
		if r.MissL1 {
			sums[1]++
		}
		if r.MissL2 {
			sums[2]++
		}
		if r.MissLLC {
			sums[3]++
		}
	}
	return sums
}

func bulk(h *Hierarchy, base, stride uint64, n int) [4]uint64 {
	c, m1, m2, mL := h.AccessLines(base, stride, n)
	return [4]uint64{c, m1, m2, mL}
}

// sameState fails unless a and b hold identical tag state in every way
// of every set at every level, up to the level's associativity (a way
// past its chunk's stored width, or in an absent chunk, is invalid),
// and the same lastLine.
func sameState(t *testing.T, what string, a, b *Hierarchy) {
	t.Helper()
	if a.lastLine != b.lastLine {
		t.Fatalf("%s: lastLine %d vs %d", what, a.lastLine, b.lastLine)
	}
	levels := []struct {
		name string
		a, b *cacheLevel
	}{{"L1", a.l1, b.l1}, {"L2", a.l2, b.l2}, {"LLC", a.llc, b.llc}}
	for _, lv := range levels {
		for si := uint64(0); si <= lv.a.setMask; si++ {
			for i := 0; i < lv.a.ways; i++ {
				if u, v := storedWay(lv.a, si, i), storedWay(lv.b, si, i); u != v {
					t.Fatalf("%s: %s set %d way %d: tag %d vs %d", what, lv.name, si, i, u, v)
				}
			}
		}
	}
}

// sameWidths fails unless the reset hierarchy a stores each chunk at
// the width the new hierarchy b does after the same accesses, and has
// none (it may hold it parked) where b has none.
func sameWidths(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	for i, lv := range [][2]*cacheLevel{{a.l1, b.l1}, {a.l2, b.l2}, {a.llc, b.llc}} {
		for ci := range lv[0].chunks {
			if x, y := len(lv[0].chunks[ci]), len(lv[1].chunks[ci]); x != y {
				t.Fatalf("reset vs fresh: level %d chunk %d stores %d tag words, the fresh one %d", i+1, ci, x, y)
			}
		}
	}
}

// mruHeld fails unless h keeps its walk invariant: the range spans at
// most 64 lines, and each of its lines whose L1 set has not moved is in
// that set's MRU way.
func mruHeld(t *testing.T, what string, h *Hierarchy) {
	t.Helper()
	if h.mruHi-h.mruLo > 64 {
		t.Fatalf("%s: walk range [%#x, %#x) spans more than 64 lines", what, h.mruLo, h.mruHi)
	}
	for line := h.mruLo; line < h.mruHi; line++ {
		si := line & h.l1.setMask
		if h.l1.moved[si>>chunkSetBits]>>(si&(chunkSets-1))&1 == 0 && storedWay(h.l1, si, 0) != line>>h.l1.tagShift+1 {
			t.Fatalf("%s: line %#x of the walk range [%#x, %#x) is not at MRU in L1 set %d, whose moved bit is clear", what, line, h.mruLo, h.mruHi, si)
		}
	}
}

// storedWay reads way i of set si, zero when the set's chunk is absent
// or stores fewer than i+1 ways.
func storedWay(c *cacheLevel, si uint64, i int) uint64 {
	ch := c.chunks[si>>chunkSetBits]
	w := len(ch) >> c.setsShift
	if i >= w {
		return 0
	}
	return ch[(int(si)&(chunkSets-1))*w+i]
}

// sameProbes runs the walk backwards and then the history's addresses
// on a and every b, requiring identical Results access by access.
func sameProbes(t *testing.T, what string, a hierarchy, bs []hierarchy, hist []byte, base, stride uint64, n int) {
	t.Helper()
	probe := func(addr uint64) {
		ra := a.Access(addr)
		for _, b := range bs {
			if rb := b.Access(addr); ra != rb {
				t.Fatalf("%s: probe %#x: %+v vs %+v", what, addr, ra, rb)
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		probe(base + uint64(i)*stride)
	}
	for ; len(hist) >= 3; hist = hist[3:] {
		v := uint64(hist[1]) | uint64(hist[2])<<8
		probe(v << 6)
		probe(base + v<<3)
	}
}

// FuzzAccessLines proves the bulk walk and the per-access path equal
// to the reference model (refHierarchy), which shares no code or
// storage with Hierarchy, and to a scan-only hierarchy, whose
// high-water mark is pinned at the maximum so that every line scans
// the ways of every level; and a flushed and a reset hierarchy,
// refilled in the chunks they parked, equal to a fresh one and to the
// flushed reference: same sums, same tag state, cold-line mark, walk
// range and moved bits (and, reset, the same chunk widths), same
// answers to every later probe. The history's walks run in bulk on the
// bulk arms (fast, then the flushed, reset and fresh hierarchies),
// which skip the lines earlier walks left at L1's MRU way, and as
// Access calls on the others; mruHeld checks the bulk arms' walk
// ranges after the history and after each walk.
func FuzzAccessLines(f *testing.F) {
	hist := []byte{
		2, 0, 0, 6, 1, 0, 7, 2, 0, 3, 4, 0, 9, 0, 1, 0, 0, 0,
		8, 0x40, 0, 4, 8, 0, 1, 1, 0, 10, 0xff, 0xff, 5, 3, 0,
	}
	// Sliding 32-line walks from 12 lines before base, each 1–4 lines
	// past the last, with one operation on walked line 6's L1 set twice
	// between them: a user access above the walks (installed fresh,
	// then an LRU move), one far below them (found by the scan), an
	// access of line 6 itself (an MRU hit, which moves nothing), or a
	// FlushAll. The fuzz target's own walk, from base, slides on by two.
	var slides [][]byte
	for _, op := range [][]byte{{2, 0x30, 0x04}, {9, 6, 0}, {8, 48, 0}, {0, 0, 0}} {
		slides = append(slides, slices.Concat(
			[]byte{6, 32, 0xf4}, op, []byte{6, 32, 0xf8, 6, 32, 0xf9},
			op, []byte{6, 32, 0xfb, 6, 32, 0xfe}))
	}
	// A 64-line walk from base+16 lines, a 32-line walk just before it,
	// whose union with it would span 96 lines, then a walk of the lines
	// 64 past the second's, in the same sets of a 64-set L1.
	back := []byte{6, 64, 0x10, 6, 32, 0xf0, 6, 32, 0x30}
	// A 40-line walk from base, which the fuzz target's own walk skips
	// whole.
	inside := []byte{6, 40, 0}
	// A 32-line walk from base, then an 8-line walk 8 lines past its
	// end: the lines between them were never walked.
	gap := []byte{6, 32, 0, 6, 8, 40}
	for sel := uint8(0); sel < uint8(len(fuzzConfigs)); sel++ {
		f.Add(sel, hist, uint64(0xffff_8000_0000_0000), uint64(64), uint16(32)) // the kernel's walk
		f.Add(sel, hist, uint64(0), uint64(64), uint16(0))                      // n = 0
		f.Add(sel, hist, uint64(0x40), uint64(0), uint16(9))                    // one line, lastLine repeats
		f.Add(sel, hist, uint64(0x38), uint64(8), uint16(40))                   // sub-line stride
		f.Add(sel, hist, uint64(0x1000), uint64(96), uint16(300))               // straddling stride
		f.Add(sel, hist, uint64(0), uint64(4096), uint16(200))                  // one set, many tags
		f.Add(sel, []byte{}, uint64(1<<40), uint64(1<<63), uint16(5))           // wrapping addresses
	}
	f.Add(uint8(0), hist, uint64(0), uint64(512<<10), uint16(40)) // one LLC set of the default, all 16 ways
	// The walk seeds, on the two hierarchies whose L1s keep moved bits.
	for _, sel := range []uint8{0, 4} {
		for _, base := range []uint64{0xffff_8000_0000_0000, 0x4_0000} {
			for _, slide := range slides {
				f.Add(sel, slide, base, uint64(64), uint16(32))
			}
			f.Add(sel, slides[0], base, uint64(64), uint16(64))
			f.Add(sel, back, base, uint64(64), uint16(32))
			f.Add(sel, inside, base, uint64(64), uint16(32))
			f.Add(sel, gap, base, uint64(64), uint16(48))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, hist []byte, base, stride uint64, n uint16) {
		cfg := fuzzConfigs[int(sel)%len(fuzzConfigs)]
		lines := int(n % 1024)

		fast, slow, scan, ref := NewHierarchy(cfg), NewHierarchy(cfg), NewHierarchy(cfg), newRef(cfg)
		scan.fresh = ^uint64(0)
		for _, h := range []hierarchy{fast, perAccess{slow}, perAccess{scan}, ref} {
			replay(h, hist, base)
		}
		mruHeld(t, "bulk after the history", fast)
		want := walk(ref, base, stride, lines)
		if got := bulk(fast, base, stride, lines); got != want {
			t.Fatalf("AccessLines(%#x, %d, %d) = %v, %d reference Access calls sum to %v", base, stride, lines, got, lines, want)
		}
		if got := walk(slow, base, stride, lines); got != want {
			t.Fatalf("%d Access calls from %#x by %d sum to %v, the reference to %v", lines, base, stride, got, want)
		}
		if got := walk(scan, base, stride, lines); got != want {
			t.Fatalf("%d scan-only Access calls from %#x by %d sum to %v, the reference to %v", lines, base, stride, got, want)
		}
		mruHeld(t, "bulk after the walk", fast)
		sameState(t, "bulk vs scan-only", fast, scan)
		sameState(t, "per-access vs scan-only", slow, scan)
		sameProbes(t, "bulk, per-access and scan-only vs reference", ref, []hierarchy{fast, slow, scan}, hist, base, stride, lines)

		// fast and slow have materialized and widened chunks. FlushAll
		// parks fast's at their widths and Reset parks slow's one way
		// wide; the refill below takes them back cleared and widens
		// them in place. Both lower the cold-line mark to 0, where a
		// new hierarchy starts it, unless NewHierarchy pinned it.
		fast.FlushAll()
		slow.Reset()
		ref.FlushAll()
		fresh := NewHierarchy(cfg)
		type arm struct {
			name string
			h    *Hierarchy
		}
		arms := []arm{{"flushed", fast}, {"reset", slow}}
		for _, a := range arms {
			if a.h.fresh != fresh.fresh {
				t.Fatalf("%s: cold-line mark %#x, NewHierarchy starts it at %#x", a.name, a.h.fresh, fresh.fresh)
			}
		}
		for _, h := range []hierarchy{fast, slow, fresh, ref} {
			replay(h, hist, base)
		}
		want = walk(ref, base, stride, lines)
		for _, a := range append(arms, arm{"fresh", fresh}) {
			if got := bulk(a.h, base, stride, lines); got != want {
				t.Fatalf("%s walk %v, reference walk %v", a.name, got, want)
			}
		}
		for _, a := range arms {
			h := a.h
			mruHeld(t, a.name+" after the walk", h)
			sameState(t, a.name+" vs fresh", h, fresh)
			if h.fresh != fresh.fresh || h.mruLo != fresh.mruLo || h.mruHi != fresh.mruHi || !slices.Equal(h.l1.moved, fresh.l1.moved) {
				t.Fatalf("%s vs fresh: cold-line mark %#x vs %#x, walk range [%#x, %#x) vs [%#x, %#x), moved bits %#x vs %#x",
					a.name, h.fresh, fresh.fresh, h.mruLo, h.mruHi, fresh.mruLo, fresh.mruHi, h.l1.moved, fresh.l1.moved)
			}
		}
		sameWidths(t, slow, fresh)
		sameProbes(t, "flushed, reset and fresh vs reference", ref, []hierarchy{fast, slow, fresh}, hist, base, stride, lines)
	})
}

func TestAccessLinesKnownAnswers(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	mem, l1 := uint64(cfg.MemoryCycles), uint64(cfg.L1.HitCycles)

	if c, m1, m2, mL := h.AccessLines(0x1000, 64, 32); c != 32*mem || m1 != 32 || m2 != 32 || mL != 32 {
		t.Errorf("cold 32-line walk: cycles %d misses %d/%d/%d, want %d and 32/32/32", c, m1, m2, mL, 32*mem)
	}
	if c, m1, _, _ := h.AccessLines(0x1000, 64, 32); c != 32*l1 || m1 != 0 {
		t.Errorf("warm 32-line walk: cycles %d, L1 misses %d, want %d and 0", c, m1, 32*l1)
	}
	// The walk's last line is lastLine: a repeat answers inline.
	if c, m1, _, _ := h.AccessLines(0x1000+31*64, 0, 5); c != 5*l1 || m1 != 0 {
		t.Errorf("repeat of the last line: cycles %d, L1 misses %d", c, m1)
	}
	// Eight 8-byte steps per line: one miss per line, seven repeats.
	if c, m1, _, _ := h.AccessLines(0x10_0000, 8, 16); c != 2*mem+14*l1 || m1 != 2 {
		t.Errorf("sub-line stride: cycles %d, L1 misses %d, want %d and 2", c, m1, 2*mem+14*l1)
	}
	if c, m1, m2, mL := h.AccessLines(0x20_0000, 64, 0); c|m1|m2|mL != 0 {
		t.Errorf("empty walk returned %d/%d/%d/%d", c, m1, m2, mL)
	}
}

// TestWalkSkipKnownAnswers walks 32 kernel lines, changes the cache,
// and walks 32 lines again one line on, on the default hierarchy and on
// a twin whose walks are Access calls: both must give the known sums
// and end with the same tag state. Walked line 5 is the one the change
// moves from its L1 set's MRU way.
func TestWalkSkipKnownAnswers(t *testing.T) {
	const base = 0xffff_8000_0000_0000 // L1 set 0
	cfg := DefaultConfig()
	mem, l1, l2 := uint64(cfg.MemoryCycles), uint64(cfg.L1.HitCycles), uint64(cfg.L2.HitCycles)
	line5 := uint64(base + 5*64)
	for _, tc := range []struct {
		name    string
		between func(h hierarchy)
		want    [4]uint64 // cycles, L1, L2 and LLC misses of the second walk
	}{
		{"nothing between: 31 L1 hits and one cold line", func(hierarchy) {}, [4]uint64{31*l1 + mem, 1, 1, 1}},
		{"8 user lines in line 5's L1 set, scanned", func(h hierarchy) {
			for k := uint64(0); k < 8; k++ {
				h.Access((5 + 64*k) * 64)
			}
		}, [4]uint64{30*l1 + l2 + mem, 2, 1, 1}},
		{"8 lines in line 5's L1 set, installed fresh", func(h hierarchy) {
			for k := uint64(1); k <= 8; k++ {
				h.Access(line5 + k*64*64)
			}
		}, [4]uint64{30*l1 + l2 + mem, 2, 1, 1}},
		{"FlushAll", func(h hierarchy) { h.FlushAll() }, [4]uint64{32 * mem, 32, 32, 32}},
	} {
		h, twin := NewHierarchy(cfg), NewHierarchy(cfg)
		h.AccessLines(base, 64, 32)
		walk(twin, base, 64, 32)
		tc.between(h)
		tc.between(twin)
		if got := bulk(h, base+64, 64, 32); got != tc.want {
			t.Errorf("%s: AccessLines sums %v, want %v", tc.name, got, tc.want)
		}
		if got := walk(twin, base+64, 64, 32); got != tc.want {
			t.Errorf("%s: Access calls sum to %v, want %v", tc.name, got, tc.want)
		}
		sameState(t, tc.name, h, twin)
	}
}

// TestWalkRange pins the line range a walk leaves at L1's MRU way: the
// walk's own lines, joined with the range before it while the two touch
// and span at most 64 lines, so a walk that slides on by k lines finds
// all but k of its lines in it. The walk also clears its sets' moved
// bits and leaves lastLine at its last line, skipped or not.
func TestWalkRange(t *testing.T) {
	h := NewDefault()
	first := uint64(0xffff_8000_0000_0000) >> 6
	for _, w := range []struct {
		off    uint64
		n      int
		lo, hi uint64 // the range after the walk, in lines from first
	}{
		{0, 32, 0, 32},
		{1, 32, 0, 33}, // slides on by one: joined
		{4, 32, 0, 36},
		{2, 8, 0, 36},    // inside the range
		{30, 32, 0, 62},  // 62 lines
		{33, 32, 33, 65}, // the union would span 65
		{10, 16, 10, 26}, // a gap below: not joined
		{26, 8, 10, 34},  // adjacent above: joined
		{0, 10, 0, 34},   // adjacent below: joined
		{60, 4, 60, 64},
		{0, 60, 0, 64}, // joined to exactly 64
		{64, 32, 64, 96},
		{40, 24, 40, 96}, // joined, up to the old range's top
		{8, 32, 8, 40},   // the union would span 88 through the old top
	} {
		h.AccessLines((first+w.off)<<6, 64, w.n)
		if h.mruLo != first+w.lo || h.mruHi != first+w.hi {
			t.Fatalf("after the walk of %d lines from +%d the range is [+%d, +%d), want [+%d, +%d)",
				w.n, w.off, h.mruLo-first, h.mruHi-first, w.lo, w.hi)
		}
		if m := h.l1.movedFrom(first+w.off) & (1<<w.n - 1); m != 0 {
			t.Fatalf("after the walk of %d lines from +%d its sets' moved bits read %#x", w.n, w.off, m)
		}
		if h.lastLine != first+w.off+uint64(w.n) {
			t.Fatalf("after the walk of %d lines from +%d lastLine is +%d", w.n, w.off, h.lastLine-first)
		}
		mruHeld(t, "walk range", h)
	}
}

// TestFlushRecyclesChunks pins the chunk life cycle: FlushAll parks
// each chunk at its width and Reset one way wide, and the next touch
// takes it back, widening it in place, so once a hierarchy has reached
// its footprint, flushing or resetting and re-touching the same lines
// allocates nothing.
func TestFlushRecyclesChunks(t *testing.T) {
	h := NewDefault()
	touch := func() {
		for a := uint64(0); a < 1<<20; a += 64 {
			h.Access(a)
		}
		h.AccessLines(0xffff_8000_0000_0000, 64, 32)
	}
	touch()
	if allocs := testing.AllocsPerRun(10, func() { h.FlushAll(); touch() }); allocs != 0 {
		t.Errorf("FlushAll + re-touch allocated %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Reset(); touch() }); allocs != 0 {
		t.Errorf("Reset + re-touch allocated %.1f times per run, want 0", allocs)
	}
	if r := h.Access(1 << 21); !r.MissLLC {
		t.Error("an untouched line hit after the refill")
	}
	h.FlushAll()
	if r := h.Access(0); !r.MissLLC {
		t.Error("a recycled chunk kept its old tags")
	}
}

// TestChunksStoreTheWaysTheyUse pins the footprint: a walk that puts
// one line in each LLC set leaves every LLC chunk one way wide, 8,192
// stored tags rather than the 131,072 of all 16 ways.
func TestChunksStoreTheWaysTheyUse(t *testing.T) {
	h := NewDefault()
	h.AccessLines(0xffff_8000_0000_0000, 64, 8192)
	words := 0
	for _, ch := range h.llc.chunks {
		words += len(ch)
	}
	if words != 8192 {
		t.Errorf("LLC stores %d tag words after one line per set, want 8192", words)
	}
}
