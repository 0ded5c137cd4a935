package machine

import "testing"

// FuzzPick holds the packed-key pick to the scan it replaced. best is
// the lowest-index core with the smallest next-action time, and the
// horizon is the first clock at which best loses the pick: equal to a
// lower core's time, or one past a higher core's. Each code byte sets
// one core's clock: idle, a small value (heavy ties and adjacent
// values), a value next to the ceiling, or one near base.
func FuzzPick(f *testing.F) {
	f.Add(uint8(4), uint64(0), []byte{0, 0, 0, 0})                         // all idle
	f.Add(uint8(4), uint64(0), []byte{0, 0, 0x45, 0})                      // one busy core
	f.Add(uint8(4), uint64(0), []byte{0x43, 0x43, 0x43, 0x43})             // all tied
	f.Add(uint8(6), uint64(0), []byte{0x47, 0x47, 0x47, 0x47, 0x47, 0x42}) // best the last index
	f.Add(uint8(3), uint64(0), []byte{0x80, 0x81, 0})                      // next to the ceiling
	f.Add(uint8(9), uint64(1)<<40, []byte{0xc1, 0x41, 0xc0, 0, 0x82, 0xc0, 0x41, 0x40, 0xc1})
	f.Fuzz(func(t *testing.T, n uint8, base uint64, codes []byte) {
		if n == 0 || n > 9 {
			n = 1 + n%9
		}
		shift := keyShift(int(n))
		ceiling := never >> shift
		if _, fits := pack(ceiling, int(n)-1, shift); fits {
			t.Fatalf("%d cores: the ceiling %d packs", n, ceiling)
		}
		ats := make([]uint64, n) // never: idle
		keys := make([]uint64, n)
		for i := range ats {
			var c byte
			if i < len(codes) {
				c = codes[i]
			}
			switch off := uint64(c & 7); c >> 6 {
			case 0:
				ats[i] = never
			case 1:
				ats[i] = off
			case 2:
				ats[i] = ceiling - 1 - off
			default:
				ats[i] = (base%ceiling + off) % ceiling
			}
			keys[i] = never
			if ats[i] != never {
				var fits bool
				if keys[i], fits = pack(ats[i], i, shift); !fits {
					t.Fatalf("time %d below the ceiling %d does not pack", ats[i], ceiling)
				}
			}
		}

		// The scan: lowest-index minimum, then the first clock at which
		// another core takes the pick from it.
		wantBest, wantT := -1, never
		for i, at := range ats {
			if at < wantT {
				wantBest, wantT = i, at
			}
		}
		wantH := never
		for i, at := range ats {
			if i != wantBest && at != never {
				if i > wantBest {
					at++
				}
				wantH = min(wantH, at)
			}
		}
		if wantH == never {
			// With no rival the horizon is one past the ceiling: a
			// burst that reaches it has a time that no longer packs.
			wantH = ceiling + 1
		}

		first, second := smallest2(keys)
		if first == never {
			if wantBest != -1 {
				t.Fatalf("clocks %v: pick found no core, scan found core %d", ats, wantBest)
			}
			return
		}
		best, bestT := int(first&(1<<shift-1)), first>>shift
		if got := horizon(second, best, shift); best != wantBest || bestT != wantT || got != wantH {
			t.Fatalf("clocks %v: pick (core %d at %d, horizon %d), scan (core %d at %d, horizon %d)",
				ats, best, bestT, got, wantBest, wantT, wantH)
		}
	})
}
