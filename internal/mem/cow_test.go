package mem

import (
	"math/rand"
	"testing"
)

// applyOps drives a scripted random write set against a space. The
// same seed must produce the same mutations on any space with the
// same layout, which is what lets the property test compare a
// dirty-tracked restored space against a freshly built one.
func applyOps(s *Space, base uint64, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0: // write inside the snapshotted working set
			s.Write64(base+uint64(rng.Intn(512))*8, rng.Uint64())
		case 1: // write far away, materializing fresh pages
			s.Write64(uint64(1+rng.Intn(1<<16))*PageSize, rng.Uint64())
		case 2: // read-modify-write
			s.Add64(base+uint64(rng.Intn(512))*8, rng.Uint64())
		case 3: // bulk write spanning page boundaries
			words := make([]uint64, 1+rng.Intn(3*PageWords))
			for j := range words {
				words[j] = rng.Uint64()
			}
			s.WriteWords(base+uint64(rng.Intn(256))*8, words)
		case 4: // allocate and touch
			a := s.Alloc(uint64(1+rng.Intn(4*PageSize)) &^ 7)
			s.Write64(a, rng.Uint64())
		case 5: // reads populate the read cache and may materialize pages
			_ = s.Read64(uint64(1+rng.Intn(1<<16)) * PageSize)
		}
	}
}

// buildRef builds the canonical pre-snapshot state shared by the
// property test's fresh and pooled spaces.
func buildRef() (*Space, uint64) {
	s := NewSpace()
	base := s.AllocWords(512)
	for i := uint64(0); i < 512; i++ {
		s.Write64(base+i*8, i*0x9e3779b97f4a7c15)
	}
	// A second, distant region so restores must handle sparse layouts.
	s.Write64(1<<33, 0xfeed)
	return s, base
}

func requireEqualSpaces(t *testing.T, round int, fresh, pooled *Space, base uint64) {
	t.Helper()
	if fresh.PageCount() != pooled.PageCount() {
		t.Fatalf("round %d: page counts differ: fresh %d, restored %d",
			round, fresh.PageCount(), pooled.PageCount())
	}
	if fresh.Brk() != pooled.Brk() {
		t.Fatalf("round %d: brk differs: fresh %#x, restored %#x", round, fresh.Brk(), pooled.Brk())
	}
	for i := uint64(0); i < 512; i++ {
		if f, p := fresh.Read64(base+i*8), pooled.Read64(base+i*8); f != p {
			t.Fatalf("round %d word %d: fresh %#x, restored %#x", round, i, f, p)
		}
	}
	if f, p := fresh.Read64(1<<33), pooled.Read64(1<<33); f != p {
		t.Fatalf("round %d far word: fresh %#x, restored %#x", round, f, p)
	}
}

// TestDirtyRestoreEquivalenceProperty is the COW correctness property:
// after any random mutation set, an incremental (dirty-tracked)
// Restore must leave the space indistinguishable from a freshly built
// one — same words, same brk, and the same page count (pages
// materialized after the snapshot must be gone, not merely zeroed).
// Repeated snapshot/restore rounds on one space exercise reuse of the
// dirty and created lists across generations.
func TestDirtyRestoreEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0117))
	fresh, fbase := buildRef()
	pooled, pbase := buildRef()
	if fbase != pbase {
		t.Fatal("reference builds diverged")
	}
	snap := pooled.Snapshot()
	for round := 0; round < 50; round++ {
		applyOps(pooled, pbase, rng, 200)
		pooled.Restore(snap)
		requireEqualSpaces(t, round, fresh, pooled, pbase)
	}
}

// TestRestoreForeignSnapshot pins the fallback path: restoring a
// snapshot that is not the space's current baseline must still be
// exact, and must adopt that snapshot so the next Restore of it is
// incremental again.
func TestRestoreForeignSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf0e1))
	fresh, base := buildRef()
	s, sbase := buildRef()
	snapA := s.Snapshot()

	// Move to a different baseline, mutate, then come back to snapA.
	applyOps(s, sbase, rng, 100)
	_ = s.Snapshot() // snapB becomes the active baseline
	applyOps(s, sbase, rng, 100)
	s.Restore(snapA) // foreign: full-sweep path
	requireEqualSpaces(t, 0, fresh, s, base)

	// snapA was adopted: this round uses the incremental path.
	applyOps(s, sbase, rng, 100)
	s.Restore(snapA)
	requireEqualSpaces(t, 1, fresh, s, base)
}

// TestRestoreInvalidatesPageHandles pins the generation contract that
// the CPU core's translation hint relies on: Gen changes whenever an
// outstanding ReadPage/WritePage pointer may be stale, and a fresh
// handle after Restore observes the restored contents.
func TestRestoreInvalidatesPageHandles(t *testing.T) {
	s := NewSpace()
	addr := s.AllocWords(1)
	s.Write64(addr, 7)
	snap := s.Snapshot()
	g0 := s.Gen()

	wp := s.WritePage(addr)
	wp[0] = 99
	if got := s.Read64(addr); got != 99 {
		t.Fatalf("page handle store invisible: %d", got)
	}
	s.Restore(snap)
	if s.Gen() == g0 {
		t.Fatal("Restore did not change Gen")
	}
	if got := s.Read64(addr); got != 7 {
		t.Fatalf("restore lost value: %d", got)
	}
	if got := s.ReadPage(addr)[0]; got != 7 {
		t.Fatalf("fresh page handle sees stale value: %d", got)
	}

	s.Snapshot()
	if s.Gen() == g0 {
		t.Fatal("Snapshot did not change Gen")
	}
}

// TestRestoreDropsReadMaterializedPages: pages materialized by reads
// alone (never written) must also disappear on Restore, or PageCount
// equivalence with a fresh build breaks.
func TestRestoreDropsReadMaterializedPages(t *testing.T) {
	s := NewSpace()
	s.Write64(0x1000, 1)
	snap := s.Snapshot()
	if s.Read64(1<<20) != 0 {
		t.Fatal("fresh page not zero")
	}
	if s.PageCount() != 2 {
		t.Fatalf("read did not materialize a page: %d", s.PageCount())
	}
	s.Restore(snap)
	if s.PageCount() != 1 {
		t.Fatalf("read-materialized page survived restore: %d pages", s.PageCount())
	}
}

// Restore parks the pages it drops, and the next run's new pages reuse
// them zeroed: once a run loop has materialized its pages, restoring
// and materializing the same number again allocates nothing, and a
// recycled page holds none of its old words.
func TestRestoreRecyclesPages(t *testing.T) {
	s := NewSpace()
	snap := s.Snapshot()
	run := func(first uint64) {
		s.Restore(snap)
		for p := first; p < first+8; p++ {
			if v := s.Read64(p*PageSize + 8); v != 0 {
				t.Fatalf("page %d reads %#x before any write, want 0", p, v)
			}
			s.Write64(p*PageSize, p)
		}
	}
	run(16)
	first := uint64(32)
	if n := testing.AllocsPerRun(20, func() { run(first); first += 8 }); n != 0 {
		t.Errorf("a run of 8 new pages after Restore allocates %v objects, want 0", n)
	}
	if got := s.PageCount(); got != 8 {
		t.Errorf("%d pages after the last run, want 8", got)
	}
}
