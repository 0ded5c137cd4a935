package pmu

import "fmt"

// Ledger tracks reservations of a counted counter resource — pinned
// virtualized-counter slots, kernel-allocated virtual-counter words —
// against an optional fixed capacity. The LiMiT kernel patch pins each
// virtualized counter to a hardware index and backs it with per-thread
// kernel state; both are finite on real hardware, so allocation must
// be able to fail, and the failure must be visible, countable, and
// recoverable rather than a silent miscount. A capacity of zero or
// less means unbounded: acquisition never fails, but the accounting
// still runs, which is what the leak-freedom oracle audits.
type Ledger struct {
	capacity int
	inUse    int
	peak     int
	acquired uint64
	released uint64
	denied   uint64
}

// NewLedger builds a ledger with the given capacity (<= 0: unbounded).
func NewLedger(capacity int) *Ledger { return &Ledger{capacity: capacity} }

// TryAcquire reserves n units, reporting whether the reservation fit.
// A denied reservation acquires nothing: callers that need several
// units reserve them in one all-or-nothing call so no rollback path
// exists to get wrong.
func (l *Ledger) TryAcquire(n int) bool {
	if n <= 0 {
		return true
	}
	if l.capacity > 0 && l.inUse+n > l.capacity {
		l.denied++
		return false
	}
	l.inUse += n
	l.acquired += uint64(n)
	if l.inUse > l.peak {
		l.peak = l.inUse
	}
	return true
}

// Release returns n units to the ledger. Releasing more than is
// outstanding means the kernel double-freed a resource; that is an
// accounting bug, not a recoverable condition, so it panics.
func (l *Ledger) Release(n int) {
	if n <= 0 {
		return
	}
	if n > l.inUse {
		panic(fmt.Sprintf("pmu: ledger release of %d with only %d in use", n, l.inUse))
	}
	l.inUse -= n
	l.released += uint64(n)
}

// InUse returns the units currently reserved.
func (l *Ledger) InUse() int { return l.inUse }

// Peak returns the high-water mark of concurrent reservations.
func (l *Ledger) Peak() int { return l.peak }

// Capacity returns the configured capacity (<= 0: unbounded).
func (l *Ledger) Capacity() int { return l.capacity }

// Denied returns how many TryAcquire calls were refused.
func (l *Ledger) Denied() uint64 { return l.denied }

// Acquired returns the cumulative units ever reserved.
func (l *Ledger) Acquired() uint64 { return l.acquired }

// Released returns the cumulative units ever returned.
func (l *Ledger) Released() uint64 { return l.released }
