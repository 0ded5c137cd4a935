// Package usync is the userspace synchronization library of the
// simulated world — the analogue of the pthread layer the reproduced
// paper instruments in MySQL, Apache and Firefox. It provides a
// futex-based mutex (Drepper-style three-state: 0 free, 1 locked,
// 2 locked-with-waiters) with a configurable spin phase, a pure
// spinlock, and a generation-counting futex barrier.
//
// All primitives are code emitters over isa.Builder and clobber
// R0..R4 (documented per function). Lock words are addressed through
// ref.Ref, so a lock can be a fixed global (ref.Absolute) or picked
// dynamically from a lock array through a register
// (ref.RegRel(reg, 0) with reg outside R0..R3) — the latter is how the
// MySQL model's per-table locks work.
package usync

import (
	"fmt"
	"sync/atomic"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/mem"
	"limitsim/internal/ref"
)

// labelSeq is atomic: programs are built concurrently by the runner's
// worker pool. Label numbering never reaches generated program bytes.
var labelSeq atomic.Int64

func uniq(prefix string) string {
	return fmt.Sprintf("usync.%s.%d", prefix, labelSeq.Add(1))
}

// EmitLock emits the futex-mutex acquire path for the lock word at
// `word`, spinning up to `spins` times before parking. Clobbers
// R0..R3. A register-relative word's base register must be outside
// R0..R3 and is preserved.
//
// Fast path: one CAS(0→1). Contended path: bounded spinning on plain
// loads with CAS retries, then marking the lock contended (→2) with an
// exchange loop and parking on futex_wait until the word leaves 2. A
// thread acquiring after parking sets the word to 2 (not 1), so the
// holder's release always wakes a parked waiter — the standard futex
// mutex protocol.
func EmitLock(b *isa.Builder, word ref.Ref, spins int) {
	done := uniq("lockdone")
	spin := uniq("spin")
	trylock := uniq("trylock")
	slow := uniq("slow")
	xchg := uniq("xchg")

	word.EmitLea(b, isa.R0)
	b.MovImm(isa.R1, 0)
	b.MovImm(isa.R2, 1)
	b.CAS(isa.R3, isa.R0, isa.R1, isa.R2) // try 0 -> 1
	b.Br(isa.CondEQ, isa.R3, isa.R1, done)

	b.MovImm(isa.R2, 0) // spin counter
	b.Label(spin)
	b.Load(isa.R3, isa.R0, 0)
	b.Br(isa.CondEQ, isa.R3, isa.R1, trylock) // observed free
	b.Compute(3)                              // pause
	b.AddImm(isa.R2, isa.R2, 1)
	b.MovImm(isa.R3, int64(spins))
	b.Br(isa.CondLT, isa.R2, isa.R3, spin)
	b.Jmp(slow)

	b.Label(trylock)
	b.MovImm(isa.R2, 1)
	b.CAS(isa.R3, isa.R0, isa.R1, isa.R2)
	b.Br(isa.CondEQ, isa.R3, isa.R1, done)
	b.MovImm(isa.R2, 0)
	b.Jmp(spin)

	// Slow path: c = xchg(word, 2); if c == 0 we own it; else park and
	// retry the exchange on wake.
	b.Label(slow)
	b.MovImm(isa.R2, 2)
	b.Label(xchg)
	b.Load(isa.R3, isa.R0, 0)
	b.CAS(isa.R1, isa.R0, isa.R3, isa.R2) // if word==R3: word=2; R1=old
	b.Br(isa.CondNE, isa.R1, isa.R3, xchg)
	b.MovImm(isa.R3, 0)
	b.Br(isa.CondEQ, isa.R1, isa.R3, done) // old was 0: acquired (as 2)
	b.MovImm(isa.R1, 2)
	b.Syscall(kernel.SysFutexWait) // R0=addr, R1=expected 2
	word.EmitLea(b, isa.R0)        // restore clobbered addr
	b.MovImm(isa.R2, 2)
	b.Jmp(xchg)

	b.Label(done)
}

// EmitUnlock emits the futex-mutex release path. Clobbers R0..R3.
//
// Decrement the word: 1→0 means no waiters; 2→1 means waiters may be
// parked, so store 0 and wake one.
func EmitUnlock(b *isa.Builder, word ref.Ref) {
	done := uniq("unlockdone")
	word.EmitLea(b, isa.R0)
	b.MovImm(isa.R1, -1)
	b.XAdd(isa.R3, isa.R0, isa.R1) // R3 = old
	b.MovImm(isa.R1, 1)
	b.Br(isa.CondEQ, isa.R3, isa.R1, done) // was 1: now free, nobody parked
	b.MovImm(isa.R1, 0)
	b.Store(isa.R0, 0, isa.R1) // word = 0
	b.MovImm(isa.R1, 1)
	b.Syscall(kernel.SysFutexWake) // wake one
	b.Label(done)
}

// Mutex is a fixed-address futex mutex (a process-global lock).
type Mutex struct {
	// Addr is the lock word's address.
	Addr uint64
	// Spins is the acquire path's spin budget before parking.
	Spins int
}

// NewMutex allocates a mutex on its own cache line (to avoid false
// sharing between locks in lock arrays).
func NewMutex(space *mem.Space, spins int) Mutex {
	m := Mutex{Addr: space.AllocWords(8), Spins: spins}
	return m
}

// Ref returns the lock word reference.
func (m Mutex) Ref() ref.Ref { return ref.Absolute(m.Addr) }

// EmitLock emits the acquire path. Clobbers R0..R3.
func (m Mutex) EmitLock(b *isa.Builder) { EmitLock(b, m.Ref(), m.Spins) }

// EmitUnlock emits the release path. Clobbers R0..R3.
func (m Mutex) EmitUnlock(b *isa.Builder) { EmitUnlock(b, m.Ref()) }

// LockArray is a contiguous array of futex mutexes, one cache line
// apart, indexed dynamically by generated code — the shape of the
// MySQL model's per-table lock table.
type LockArray struct {
	// Base is the first lock word's address.
	Base uint64
	// N is the number of locks.
	N int
	// Spins is the per-lock spin budget.
	Spins int
}

// LineBytes is the spacing between adjacent lock words.
const LineBytes = 64

// NewLockArray allocates n cache-line-spaced locks.
func NewLockArray(space *mem.Space, n, spins int) LockArray {
	base := space.Alloc(uint64(n * LineBytes))
	// Alloc is 8-byte aligned; line spacing just needs constant stride.
	return LockArray{Base: base, N: n, Spins: spins}
}

// EmitComputeAddr emits addrDst = Base + idx*LineBytes for a dynamic
// index in idx. Clobbers scratch; addrDst and scratch must be outside
// R0..R3 so the address survives EmitLock.
func (a LockArray) EmitComputeAddr(b *isa.Builder, addrDst, idx, scratch isa.Reg) {
	b.MovImm(scratch, LineBytes)
	b.Mul(addrDst, idx, scratch)
	b.AddImm(addrDst, addrDst, int64(a.Base))
}

// SpinMutex is a test-and-set spinlock with no kernel involvement,
// kept for ablations: it wastes cycles under contention exactly the
// way the paper's microbenchmarks show.
type SpinMutex struct {
	Addr uint64
}

// NewSpinMutex allocates a spinlock.
func NewSpinMutex(space *mem.Space) SpinMutex {
	return SpinMutex{Addr: space.AllocWords(8)}
}

// EmitLock emits the spin-acquire. Clobbers R0..R3.
func (m SpinMutex) EmitLock(b *isa.Builder) {
	retry := uniq("spintry")
	done := uniq("spindone")
	b.MovImm(isa.R0, int64(m.Addr))
	b.MovImm(isa.R1, 0)
	b.MovImm(isa.R2, 1)
	b.Label(retry)
	b.CAS(isa.R3, isa.R0, isa.R1, isa.R2)
	b.Br(isa.CondEQ, isa.R3, isa.R1, done)
	b.Compute(3) // pause
	b.Jmp(retry)
	b.Label(done)
}

// EmitUnlock emits the release. Clobbers R0, R1.
func (m SpinMutex) EmitUnlock(b *isa.Builder) {
	b.MovImm(isa.R0, int64(m.Addr))
	b.MovImm(isa.R1, 0)
	b.Store(isa.R0, 0, isa.R1)
}

// Barrier is a generation-counting futex barrier for a fixed number of
// participants.
type Barrier struct {
	// CountAddr and GenAddr are the arrival counter and generation
	// words.
	CountAddr uint64
	GenAddr   uint64
	// N is the participant count.
	N int
}

// NewBarrier allocates a barrier for n participants.
func NewBarrier(space *mem.Space, n int) Barrier {
	return Barrier{CountAddr: space.AllocWords(8), GenAddr: space.AllocWords(8), N: n}
}

// EmitWait emits one barrier episode. Clobbers R0..R4.
//
// Each arrival records the current generation, increments the counter,
// and — unless it is the last — parks on the generation word until it
// changes. The last arrival resets the counter, bumps the generation
// and wakes everyone. The generation read precedes the increment, so a
// stale FutexWait returns immediately rather than missing the wake.
func (ba Barrier) EmitWait(b *isa.Builder) {
	wait := uniq("barwait")
	last := uniq("barlast")
	done := uniq("bardone")

	b.MovImm(isa.R0, int64(ba.GenAddr))
	b.Load(isa.R4, isa.R0, 0) // my generation
	b.MovImm(isa.R0, int64(ba.CountAddr))
	b.MovImm(isa.R1, 1)
	b.XAdd(isa.R2, isa.R0, isa.R1) // old count
	b.MovImm(isa.R3, int64(ba.N-1))
	b.Br(isa.CondEQ, isa.R2, isa.R3, last)

	b.Label(wait)
	b.MovImm(isa.R0, int64(ba.GenAddr))
	b.Load(isa.R1, isa.R0, 0)
	b.Br(isa.CondNE, isa.R1, isa.R4, done) // generation advanced
	b.Mov(isa.R1, isa.R4)
	b.Syscall(kernel.SysFutexWait) // R0=genaddr, R1=my gen
	b.Jmp(wait)

	b.Label(last)
	b.MovImm(isa.R0, int64(ba.CountAddr))
	b.MovImm(isa.R1, 0)
	b.Store(isa.R0, 0, isa.R1)
	b.MovImm(isa.R0, int64(ba.GenAddr))
	b.AddImm(isa.R4, isa.R4, 1)
	b.Store(isa.R0, 0, isa.R4)
	b.MovImm(isa.R1, 1<<30) // wake all
	b.Syscall(kernel.SysFutexWake)
	b.Label(done)
}
