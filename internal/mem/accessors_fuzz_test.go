package mem

import "testing"

// collidingPages are the page numbers the accessor fuzz target
// addresses: 0/16/32/48 share pcache slot 0 and 1/17/33 share slot 1,
// so every op risks evicting or aliasing another page's entry, and a
// multi-word run from the end of page n spills into page n+1.
var collidingPages = [...]uint64{0, 16, 32, 48, 1, 17, 33, 2}

// fuzzBase offsets the fuzzed pages away from address zero.
const fuzzBase = 0x40_0000

// opStream decodes the fuzzer's bytes; an exhausted stream reads zeros.
type opStream []byte

func (s *opStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

// addr picks a colliding page and one of its first or last four words.
func (s *opStream) addr() uint64 {
	sel := s.next()
	page := fuzzBase + collidingPages[int(sel>>3)%len(collidingPages)]*PageSize
	w := uint64(sel & 7)
	if w >= 4 {
		w = PageWords - 1 - (w - 4)
	}
	return page + w*8
}

// value mixes the next stream byte and the op index into a word.
func (s *opStream) value(step int) uint64 {
	x := uint64(s.next())<<32 | uint64(step) + 0x9e3779b97f4a7c15
	x ^= x >> 31
	return x * 0xbf58476d1ce4e5b9
}

func copyModel(m map[uint64]uint64) map[uint64]uint64 {
	cp := make(map[uint64]uint64, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// FuzzSpaceAccessors drives every Space accessor — Read64, Write64,
// Add64, ReadWords, WriteWords, ReadPage, WritePage (including stores
// through a held handle while its Gen is current), Snapshot, and
// Restore of both the active baseline (incremental) and an older
// snapshot (full sweep) — over pages that collide in the direct-mapped
// page cache, and checks every read and the final backing store
// against a plain word map. Pages a Restore drops are recycled for the
// next pages materialized, so the histories also check that a recycled
// page reads as zero.
func FuzzSpaceAccessors(f *testing.F) {
	// An address byte is page index<<3 | word selector (0-3 first
	// words, 4-7 last words); see opStream.addr.
	f.Add([]byte{1, 0x04, 7, 8, 1, 0x0c, 9, 1, 0x00, 3, 9, 0, 0, 0x04, 0, 0x0c})                       // write, snapshot, write a colliding page, restore
	f.Add([]byte{8, 3, 0x07, 5, 1, 2, 3, 4, 5, 6, 4, 0x07, 7, 10, 0, 4, 0x07, 7})                      // snapshot, spill across pages, restore
	f.Add([]byte{6, 0x20, 1, 1, 0x28, 2, 7, 0x01, 3, 0, 0x21, 8, 7, 0x02, 4, 9, 0, 0, 0x21})           // held handle across a pcache eviction and a snapshot
	f.Add([]byte{1, 0x10, 5, 8, 1, 0x10, 6, 2, 0x18, 7, 8, 1, 0x10, 8, 9, 0, 0, 0x10, 10, 1, 0, 0x18}) // two snapshots, full-sweep restores
	// Pages created after a snapshot, dropped by restoring it, then
	// written again, and other pages materialized from the dropped
	// ones' storage: every word a write did not set must read 0.
	f.Add([]byte{8, 1, 0x08, 5, 1, 0x10, 6, 9, 0, 1, 0x1b, 7, 0, 0x18, 1, 0x0c, 9, 5, 0x08, 0, 0x0c, 4, 0x08, 3})
	// The same through full sweeps: the sweep drops two pages, and the
	// next one rebuilds a snapshot page from their storage.
	f.Add([]byte{1, 0x00, 3, 8, 1, 0x08, 4, 8, 1, 0x10, 5, 9, 0, 1, 0x20, 6, 0, 0x21, 10, 1, 1, 0x28, 7, 4, 0x28, 8, 0, 0x08})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSpace()
		model := map[uint64]uint64{}
		var snaps []*Snapshot
		var models []map[uint64]uint64
		var held *PageData
		var heldBase, heldGen uint64

		in := opStream(ops)
		for step := 0; len(in) > 0; step++ {
			switch in.next() % 11 {
			case 0: // Read64
				a := in.addr()
				if got, want := s.Read64(a), model[a]; got != want {
					t.Fatalf("op %d: Read64(%#x) = %#x, model %#x", step, a, got, want)
				}
			case 1: // Write64
				a, v := in.addr(), in.value(step)
				s.Write64(a, v)
				model[a] = v
			case 2: // Add64
				a, d := in.addr(), in.value(step)
				want := model[a] + d
				if got := s.Add64(a, d); got != want {
					t.Fatalf("op %d: Add64(%#x) = %#x, model %#x", step, a, got, want)
				}
				model[a] = want
			case 3: // WriteWords, possibly spilling into the next page
				a, n := in.addr(), 1+int(in.next()%16)
				words := make([]uint64, n)
				for i := range words {
					words[i] = in.value(step + i)
					model[a+uint64(i)*8] = words[i]
				}
				s.WriteWords(a, words)
			case 4: // ReadWords
				a, n := in.addr(), 1+int(in.next()%16)
				for i, got := range s.ReadWords(a, n) {
					if want := model[a+uint64(i)*8]; got != want {
						t.Fatalf("op %d: ReadWords(%#x)[%d] = %#x, model %#x", step, a, i, got, want)
					}
				}
			case 5: // ReadPage
				a := in.addr()
				if got, want := s.ReadPage(a)[(a%PageSize)/8], model[a]; got != want {
					t.Fatalf("op %d: ReadPage(%#x) word = %#x, model %#x", step, a, got, want)
				}
			case 6: // WritePage, then store through the handle and hold it
				a, v := in.addr(), in.value(step)
				held = s.WritePage(a)
				heldBase, heldGen = a&^uint64(PageSize-1), s.Gen()
				held[(a%PageSize)/8] = v
				model[a] = v
			case 7: // store through the held handle while its Gen is current
				a, v := in.addr(), in.value(step)
				if held != nil && heldGen == s.Gen() {
					a = heldBase + a%PageSize
					held[(a%PageSize)/8] = v
					model[a] = v
				}
			case 8: // Snapshot, keeping the two newest; it becomes the baseline
				snaps = append(snaps, s.Snapshot())
				models = append(models, copyModel(model))
				if len(snaps) > 2 {
					snaps, models = snaps[1:], models[1:]
				}
			case 9, 10: // Restore: the baseline incrementally, the other by full sweep
				if len(snaps) == 0 {
					break
				}
				i := int(in.next()) % len(snaps)
				s.Restore(snaps[i])
				model = copyModel(models[i])
			}
		}

		// Final state, read around the page cache: a snapshot copies the
		// backing pages straight from the page map.
		final := s.Snapshot()
		for a, want := range model {
			p, ok := final.pages[a&^uint64(PageSize-1)]
			if !ok {
				if want != 0 {
					t.Fatalf("final: page of %#x missing, model %#x", a, want)
				}
				continue
			}
			if got := p[(a%PageSize)/8]; got != want {
				t.Fatalf("final: word %#x = %#x, model %#x", a, got, want)
			}
		}
		for base, p := range final.pages {
			for w, got := range p {
				if a := base + uint64(w)*8; got != model[a] {
					t.Fatalf("final: word %#x = %#x, model %#x", a, got, model[a])
				}
			}
		}
	})
}
