package machine

import "math/bits"

// Pick keys order the cores for the causally-next pick. A core's
// next-action time at is packed with its index as at<<shift | core,
// and a core with no runnable work holds never, so "smallest time,
// lowest index on ties" is a plain unsigned minimum.

// never marks a core with no runnable work, and an absent sleeper or
// limit.
const never = ^uint64(0)

// keyShift returns how many low key bits hold the core index on an
// n-core machine: bits.Len(n−1), but at least 1, so that an idle second
// key's horizon, (never−best)>>shift + 1, cannot wrap to zero. The mask
// changes no value; it proves the shift below 64, which spares every
// shift in Run the compiler's fix-up for wider ones.
func keyShift(n int) uint { return uint(max(1, bits.Len(uint(n-1)))) & 63 }

// pack returns core i's key for next-action time at, and whether at
// fits: it must stay below the ceiling never>>shift (2^62−1 on four
// cores), or the key would lose time bits or reach never.
func pack(at uint64, i int, shift uint) (uint64, bool) {
	return at<<shift | uint64(i), at < never>>shift
}

// smallest2 returns the smallest and second-smallest keys, with min and
// max only.
func smallest2(keys []uint64) (first, second uint64) {
	first, second = never, never
	if len(keys) == 4 {
		// The common shape, unrolled: the network read faster than the
		// loop in benchmark pairs. Indexing keys directly, rather than
		// through locals, keeps the function inlinable.
		lo, lo2 := min(keys[0], keys[1]), min(keys[2], keys[3])
		return min(lo, lo2), min(max(lo, lo2), max(keys[0], keys[1]), max(keys[2], keys[3]))
	}
	for _, k := range keys {
		second = min(second, max(first, k))
		first = min(first, k)
	}
	return first, second
}

// horizon returns the first clock at which core best loses the pick to
// the core holding key second: that core's time when its index is lower
// (equality loses), one past it when higher (equality wins). Subtracting
// best borrows one from the time bits exactly when the other index is
// lower, so one formula gives both. It needs second ≥ best: in the pick
// second is not below best's own key, and after a sleeper wake a lower
// key holds a deadline, at least one syscall past cycle 0. An idle
// second gives the ceiling plus one, so only the ceiling stops the
// burst.
func horizon(second uint64, best int, shift uint) uint64 {
	return (second-uint64(best))>>shift + 1
}
