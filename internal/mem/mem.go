// Package mem implements the simulated physical/virtual memory of the
// machine: a sparse 64-bit address space backed by fixed-size pages,
// with word-granularity accessors and a bump allocator.
//
// Each simulated process owns one Space. All threads of a process share
// it. The host-side harness also reads Spaces directly after a run to
// extract instrumentation buffers the simulated program wrote (the
// analogue of reading a results file the real benchmark produced).
//
// Pages are stored as arrays of 64-bit little-endian words — the only
// access granularity the ISA has — so Read64/Write64 are single
// indexed loads/stores rather than byte loops. A small direct-mapped
// page cache in front of the page map serves every accessor, and
// dirty-page tracking makes Snapshot/Restore cost proportional to the
// pages actually touched between runs rather than to total guest
// memory (the copy-on-write contract the runner's worker pools rely
// on).
package mem

import "fmt"

// PageSize is the backing page granularity in bytes. It is a power of
// two and at least 8 so that 8-byte words never straddle pages given
// 8-byte alignment.
const PageSize = 1 << 12

// PageWords is the page size in 64-bit words.
const PageWords = PageSize / 8

// PageData is the word-level backing store of one page, index i
// holding the little-endian word at byte offset 8i.
type PageData [PageWords]uint64

// page is one backing page plus its dirty mark: mark == Space.gen
// exactly when the page has already been recorded in the dirty list of
// the current snapshot generation, so the write barrier costs one
// compare per write after the first.
type page struct {
	words PageData
	mark  uint64
}

// Space is a sparse simulated address space. The zero value is not
// usable; call NewSpace.
type Space struct {
	pages map[uint64]*page
	brk   uint64 // next allocation address

	// gen is the snapshot generation, bumped by Snapshot and Restore.
	// It validates outstanding page handles and the per-page dirty
	// marks: nothing is swept on a generation change, stale state simply
	// stops comparing equal. Starts at 1 so a fresh page's zero mark is
	// never "already dirty".
	gen uint64
	// active is the snapshot incremental Restore rewinds to; dirty and
	// created record the page bases written to / materialized since it
	// was taken (only maintained while active is non-nil).
	active  *Snapshot
	dirty   []uint64
	created []uint64
	// free holds the pages Restore dropped; pageFor reuses them,
	// zeroed, before allocating.
	free []*page

	// pcache is a small direct-mapped page-pointer cache in front of
	// the page map, serving every accessor (ReadPage/WritePage, and
	// through them the word accessors and the CPU cores'
	// translation-hint refills). Several cores share one Space (threads
	// of a process), so their interleaved accesses would thrash a
	// single entry; a few indexed slots keep them off the page map.
	// Entries hold base+1 (zero = invalid) and are cleared whenever
	// pages may be deleted (adoptBaseline).
	pcache [pcacheSize]pcacheEntry
}

const pcacheSize = 16 // power of two

type pcacheEntry struct {
	base uint64 // page base + 1; zero = invalid
	p    *page
}

// NewSpace returns an empty address space. Allocations start at a
// non-zero base so that address 0 stays invalid (a useful tripwire).
func NewSpace() *Space {
	return &Space{
		pages: make(map[uint64]*page),
		brk:   0x1000,
		gen:   1,
	}
}

// pageFor returns the page based at base (which must be page-aligned),
// materializing it if needed.
func (s *Space) pageFor(base uint64) *page {
	p, ok := s.pages[base]
	if !ok {
		p = s.newPage()
		s.pages[base] = p
		if s.active != nil {
			s.created = append(s.created, base)
		}
	}
	return p
}

// newPage returns a zero page with mark 0, recycled from free when it
// holds one. Mark 0 is never the current generation, so the page's
// first write records it as dirty.
func (s *Space) newPage() *page {
	n := len(s.free)
	if n == 0 {
		return new(page)
	}
	p := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	*p = page{}
	return p
}

// dropPage removes the page based at base and parks it on free. No
// handle to it survives: every caller bumps the generation after.
func (s *Space) dropPage(base uint64) {
	s.free = append(s.free, s.pages[base])
	delete(s.pages, base)
}

// cachedPage resolves the page based at base through pcache.
func (s *Space) cachedPage(base uint64) *page {
	e := &s.pcache[(base/PageSize)&(pcacheSize-1)]
	if e.base != base+1 {
		e.p = s.pageFor(base)
		e.base = base + 1
	}
	return e.p
}

// Alloc reserves size bytes aligned to 8 and returns the base address.
// It never fails; the space is as large as uint64.
func (s *Space) Alloc(size uint64) uint64 {
	s.brk = (s.brk + 7) &^ 7
	addr := s.brk
	s.brk += size
	return addr
}

// AllocWords reserves n 8-byte words and returns the base address.
func (s *Space) AllocWords(n uint64) uint64 { return s.Alloc(n * 8) }

// Brk returns the current allocation high-water mark.
func (s *Space) Brk() uint64 { return s.brk }

// Read64 loads the 8-byte little-endian word at addr. addr must be
// 8-byte aligned; unaligned access panics (simulated programs are
// generated, so this is a bug trap rather than a runtime condition).
func (s *Space) Read64(addr uint64) uint64 {
	CheckAligned(addr)
	return s.ReadPage(addr)[(addr&(PageSize-1))>>3]
}

// Write64 stores the 8-byte little-endian word v at addr (8-byte
// aligned).
func (s *Space) Write64(addr, v uint64) {
	CheckAligned(addr)
	s.WritePage(addr)[(addr&(PageSize-1))>>3] = v
}

// Add64 adds delta to the word at addr and returns the new value. The
// page is resolved once for the read-modify-write.
func (s *Space) Add64(addr, delta uint64) uint64 {
	CheckAligned(addr)
	w := s.WritePage(addr)
	i := (addr & (PageSize - 1)) >> 3
	w[i] += delta
	return w[i]
}

// ReadWords reads n consecutive 8-byte words starting at addr,
// resolving each spanned page once.
func (s *Space) ReadWords(addr uint64, n int) []uint64 {
	CheckAligned(addr)
	out := make([]uint64, n)
	for i := 0; i < n; {
		off := int((addr & (PageSize - 1)) >> 3)
		take := PageWords - off
		if rem := n - i; take > rem {
			take = rem
		}
		copy(out[i:i+take], s.ReadPage(addr)[off:off+take])
		i += take
		addr += uint64(take) * 8
	}
	return out
}

// WriteWords writes the words consecutively starting at addr,
// resolving each spanned page (and running its dirty barrier) once.
func (s *Space) WriteWords(addr uint64, words []uint64) {
	CheckAligned(addr)
	for i := 0; i < len(words); {
		off := int((addr & (PageSize - 1)) >> 3)
		take := PageWords - off
		if rem := len(words) - i; take > rem {
			take = rem
		}
		copy(s.WritePage(addr)[off:off+take], words[i:i+take])
		i += take
		addr += uint64(take) * 8
	}
}

// PageCount returns the number of backing pages materialized so far.
// Useful in tests to confirm sparseness.
func (s *Space) PageCount() int { return len(s.pages) }

// Gen returns the space's snapshot generation. It changes whenever a
// page pointer handed out by ReadPage/WritePage may have been
// invalidated (Snapshot or Restore); holders revalidate by comparing.
func (s *Space) Gen() uint64 { return s.gen }

// ReadPage returns the word array backing addr's page for read-only
// use. The pointer stays valid — and its contents coherent with
// Read64/Write64 — until the space's Gen changes. Used by the CPU
// core's per-core translation hint to keep hit-dominated access
// streams off the page map entirely.
func (s *Space) ReadPage(addr uint64) *PageData {
	return &s.cachedPage(addr &^ uint64(PageSize-1)).words
}

// WritePage is ReadPage for writable use: the page's dirty barrier
// runs now, covering every direct store to the returned array for the
// current generation. The pointer must be dropped when Gen changes.
// Every write path goes through here, so this is the only barrier: the
// first write to a page in each snapshot generation records it for
// incremental Restore. The page cache only short-circuits the page-map
// lookup, never the barrier.
func (s *Space) WritePage(addr uint64) *PageData {
	base := addr &^ uint64(PageSize-1)
	p := s.cachedPage(base)
	if p.mark != s.gen {
		p.mark = s.gen
		if s.active != nil {
			s.dirty = append(s.dirty, base)
		}
	}
	return &p.words
}

// Snapshot is a frozen copy of a Space's full state, taken with
// Space.Snapshot and reapplied with Space.Restore. The runner's worker
// pools use it to reuse one built workload across many runs: build
// once, snapshot, then Restore before each run instead of paying the
// whole program/emitter/allocation construction again.
type Snapshot struct {
	pages map[uint64]*PageData
	brk   uint64
}

// Snapshot captures the space's current contents and allocation mark.
// The returned snapshot owns copies of every page; later writes to the
// space do not leak into it. The snapshot also becomes the space's
// restore baseline: from here on the space tracks dirtied and
// newly-materialized pages so Restore back to this snapshot touches
// only those.
func (s *Space) Snapshot() *Snapshot {
	snap := &Snapshot{pages: make(map[uint64]*PageData, len(s.pages)), brk: s.brk}
	for base, p := range s.pages {
		cp := new(PageData)
		*cp = p.words
		snap.pages[base] = cp
	}
	s.adoptBaseline(snap)
	return snap
}

// adoptBaseline resets dirty tracking against snap and invalidates
// every outstanding page handle by bumping the generation.
func (s *Space) adoptBaseline(snap *Snapshot) {
	s.gen++
	s.active = snap
	s.dirty = s.dirty[:0]
	s.created = s.created[:0]
	s.pcache = [pcacheSize]pcacheEntry{}
}

// Restore rewinds the space to exactly the snapshot's state: pages
// materialized since are dropped, surviving pages are restored byte
// for byte, and the allocation mark rewinds. After Restore the space
// is indistinguishable from the one Snapshot saw. Dropped pages wait
// on a free list, so a run that materializes the same pages as the
// last one allocates none.
//
// Restoring the space's current baseline (the common worker-pool loop:
// one Snapshot, then Restore before every run) is incremental — cost
// scales with the pages written or created since, not with the space's
// size. Restoring any other snapshot falls back to a full sweep and
// adopts that snapshot as the new baseline.
func (s *Space) Restore(snap *Snapshot) {
	if snap == s.active {
		for _, base := range s.dirty {
			if orig, ok := snap.pages[base]; ok {
				s.pages[base].words = *orig
			}
			// Pages dirtied but absent from the snapshot were created
			// since it was taken; the created sweep drops them.
		}
		for _, base := range s.created {
			s.dropPage(base)
		}
		s.brk = snap.brk
		s.adoptBaseline(snap)
		return
	}

	// Full restore against a foreign snapshot.
	for base, p := range s.pages {
		orig, ok := snap.pages[base]
		if !ok {
			s.dropPage(base)
			continue
		}
		p.words = *orig
	}
	for base, orig := range snap.pages {
		if _, ok := s.pages[base]; !ok {
			p := s.newPage()
			p.words = *orig
			s.pages[base] = p
		}
	}
	s.brk = snap.brk
	s.adoptBaseline(snap)
}

// CheckAligned panics unless addr is 8-byte aligned — the bug trap
// every 64-bit accessor (and the CPU core's fast path) runs first.
func CheckAligned(addr uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned 64-bit access at %#x", addr))
	}
}
