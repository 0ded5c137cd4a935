// Package limit implements the paper's primary contribution: the LiMiT
// userspace library for precise, lightweight performance-counter
// access.
//
// A LiMiT counter is a 64-bit virtualized event count assembled from
// two pieces: the live hardware counter (read with a single rdpmc-class
// instruction, enabled for userspace by the kernel patch) and a 64-bit
// virtual counter in user memory into which the kernel folds one
// write-limit chunk (2^31 events on stock hardware) at every overflow
// interrupt. A full read is therefore the three-instruction sequence
//
//	rdpmc  dst, #idx        ; live hardware count
//	load   scratch, table+8*idx ; folded overflow base
//	add    dst, dst, scratch
//
// which costs low tens of nanoseconds — one to two orders of magnitude
// less than a perf_event read syscall. The sequence is not naturally
// atomic: a context switch or overflow fold between its instructions
// would combine inconsistent halves. LiMiT registers each sequence's
// PC range with the kernel as a *fixup region*; the patched kernel
// rewinds an interrupted thread's PC to the region start, so the read
// simply re-executes. The fast path pays nothing for this.
//
// The Emitter assembles all of that into a program built with
// isa.Builder: counter setup, read sequences (with automatic region
// collection and registration), region-delta measurement helpers, and
// the userspace overflow handler used in SignalUser mode. Host-side
// helpers extract final 64-bit values after a run.
//
// The paper's proposed hardware enhancements shorten the sequence:
// with 64-bit writable counters (e1) the virtual counter and the fixup
// disappear and a read is one instruction; with destructive reads (e2)
// an interval measurement is a single read-and-reset instruction
// instead of two reads and a subtract.
package limit

import (
	"fmt"
	"sync/atomic"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/ref"
)

// Mode selects the read-sequence shape, normally derived from the
// PMU's feature set via ModeFor.
type Mode uint8

// Emitter modes.
const (
	// ModeStock targets 2011 hardware: 48-bit counters, 31-bit writes.
	// Reads are rdpmc+load+add inside a registered fixup region.
	ModeStock Mode = iota
	// Mode64Bit targets enhancement e1: reads are a bare rdpmc.
	Mode64Bit
	// ModeDestructive targets enhancement e2: interval measurements are
	// a single destructive rdpmc; point-in-time reads fall back to the
	// stock sequence.
	ModeDestructive
)

func (m Mode) String() string {
	switch m {
	case ModeStock:
		return "stock"
	case Mode64Bit:
		return "64bit"
	case ModeDestructive:
		return "destructive"
	}
	return "mode?"
}

// ModeFor picks the best mode the PMU supports.
func ModeFor(f pmu.Features) Mode {
	if f.WriteWidth >= 64 && f.CounterWidth >= 64 {
		return Mode64Bit
	}
	if f.DestructiveReads {
		return ModeDestructive
	}
	return ModeStock
}

// CounterSpec declares one virtualized counter.
type CounterSpec struct {
	Event       pmu.Event
	CountUser   bool
	CountKernel bool
}

// UserCounter is the conventional user-ring-only spec for an event.
func UserCounter(ev pmu.Event) CounterSpec {
	return CounterSpec{Event: ev, CountUser: true}
}

// AllRingsCounter counts the event in both rings.
func AllRingsCounter(ev pmu.Event) CounterSpec {
	return CounterSpec{Event: ev, CountUser: true, CountKernel: true}
}

// emitterSeq is atomic: independent programs are built concurrently by
// the runner's worker pool, and label uniqueness must survive that.
// Labels resolve to PCs inside a single builder, so the numbering gaps
// concurrency introduces never reach the generated program bytes.
var emitterSeq atomic.Int64

// Emitter generates LiMiT library code into an isa.Builder. One
// Emitter serves one program body; its counter table is a ref.Ref:
// absolute for single-thread programs, or register-relative (per-thread
// base register, initialized before EmitInit) when multiple threads
// share the body — each thread then virtualizes into its own table.
type Emitter struct {
	b        *isa.Builder
	mode     Mode
	table    ref.Ref
	counters []CounterSpec
	regions  [][2]int
	id       int
	finished bool
	handler  bool // emit SIGPMU handler (SignalUser kernels)
	noFixup  bool // ablation: skip fixup-region registration
	policy   *OpenPolicy
}

// OpenPolicy shapes how the setup block reacts to counter-slot
// exhaustion (SysLimitOpen returning kernel.RetAgain). Without a
// policy, setup assumes allocation succeeds — fine under the kernel's
// default unbounded slot ledger. With a policy, setup retries each
// denied open up to Retries times with exponentially growing nanosleep
// backoff (slots return when other threads close counters or exit),
// and if the allocation still fails — or fails permanently — it falls
// back: every already-opened LiMiT counter is closed, every declared
// counter is reopened through the multiplexed perf path at the same
// indices, the word at FlagRef is set to 1 so results are flagged as
// estimates, and control jumps to FallbackLabel instead of the normal
// body. Degraded, never silently wrong.
type OpenPolicy struct {
	// Retries bounds retry attempts per counter (default 3).
	Retries int
	// BackoffCycles is the first retry's nanosleep duration; it doubles
	// on each further attempt (default 2000).
	BackoffCycles int64
	// FallbackLabel is the label the degraded path jumps to after
	// reopening through perf; the code there must read counters with
	// SysPerfRead instead of the rdpmc sequence.
	FallbackLabel string
	// FlagRef is a word the fallback path sets to 1 (the exact path
	// leaves it untouched; allocate it zeroed).
	FlagRef ref.Ref
}

// SetOpenPolicy installs the retry/backoff/fallback policy; call
// before EmitFinish. The setup block then clobbers R0..R5 rather than
// R0..R3.
func (e *Emitter) SetOpenPolicy(p OpenPolicy) {
	if p.FallbackLabel == "" {
		panic("limit: OpenPolicy requires a FallbackLabel")
	}
	if p.Retries <= 0 {
		p.Retries = 3
	}
	if p.BackoffCycles <= 0 {
		p.BackoffCycles = 2000
	}
	e.policy = &p
}

// AllocTable reserves a virtual-counter table for n counters in the
// process address space and returns an absolute reference to it.
func AllocTable(space *mem.Space, n int) ref.Ref {
	return ref.Absolute(space.AllocWords(uint64(n)))
}

// NewEmitter creates an Emitter writing into b with the virtual
// counter table at table. A register-relative table's base register
// must be set before the EmitInit point executes and must not be one
// of R0..R3 (the setup block's scratch registers).
func NewEmitter(b *isa.Builder, mode Mode, table ref.Ref) *Emitter {
	return &Emitter{b: b, mode: mode, table: table, id: int(emitterSeq.Add(1))}
}

// Mode returns the emitter's read-sequence mode.
func (e *Emitter) Mode() Mode { return e.mode }

// NumCounters returns how many counters have been declared.
func (e *Emitter) NumCounters() int { return len(e.counters) }

// AddCounter declares a counter and returns its index. All counters
// must be declared before EmitInit.
func (e *Emitter) AddCounter(spec CounterSpec) int {
	e.counters = append(e.counters, spec)
	return len(e.counters) - 1
}

// EnableOverflowSignalHandler makes EmitFinish generate the userspace
// SIGPMU overflow handler and register it; required when the kernel
// runs in kernel.SignalUser overflow mode.
func (e *Emitter) EnableOverflowSignalHandler() { e.handler = true }

// DisableFixupRegistration suppresses the fixup-region registration
// syscalls in the setup block while still emitting read sequences.
// This exists purely for the paper's ablation: it demonstrates the torn
// reads LiMiT's PC-rewind prevents. Never use it for measurement.
func (e *Emitter) DisableFixupRegistration() { e.noFixup = true }

func (e *Emitter) label(s string) string {
	return fmt.Sprintf("limit.%d.%s", e.id, s)
}

// EmitInit emits the jump to the setup block at the current position;
// call it at the thread's entry point. The setup block itself is
// emitted by EmitFinish (after the body, so that all read-sequence
// regions are known) and jumps back to the instruction following this
// one. Setup clobbers R0..R3.
func (e *Emitter) EmitInit() {
	e.b.Jmp(e.label("setup"))
	e.b.Label(e.label("body"))
}

// EmitRead emits a full 64-bit counter read of counter idx into dst.
// In ModeStock the sequence is wrapped in a fixup region (registered by
// EmitFinish) and clobbers scratch; in Mode64Bit it is a single rdpmc
// and scratch is untouched.
func (e *Emitter) EmitRead(dst, scratch isa.Reg, idx int) {
	switch e.mode {
	case Mode64Bit:
		e.b.RdPMC(dst, int64(idx))
	default:
		start := e.b.PC()
		e.b.RdPMC(dst, int64(idx))
		e.table.Word(idx).EmitLoad(e.b, scratch)
		e.b.Add(dst, dst, scratch)
		e.regions = append(e.regions, [2]int{start, e.b.PC()})
	}
}

// EmitIntervalRead emits the end-of-interval read for region
// measurements: it yields the event delta since the previous
// EmitIntervalRead (or since setup) in dst. In ModeDestructive this is
// a single read-and-reset instruction; other modes must pair
// EmitRead calls and subtract, so this helper panics for them (callers
// choose the strategy explicitly via Measure* helpers).
func (e *Emitter) EmitIntervalRead(dst isa.Reg, idx int) {
	if e.mode != ModeDestructive {
		panic("limit: EmitIntervalRead requires ModeDestructive")
	}
	e.b.RdPMCDestructive(dst, int64(idx))
}

// EmitMeasureStart begins a region measurement, leaving the start value
// in startReg. In ModeDestructive it drains the counter with a
// destructive read so the end read returns the delta directly, and
// startReg is set to zero.
func (e *Emitter) EmitMeasureStart(startReg, scratch isa.Reg, idx int) {
	if e.mode == ModeDestructive {
		e.b.RdPMCDestructive(startReg, int64(idx)) // drain
		e.b.MovImm(startReg, 0)
		return
	}
	e.EmitRead(startReg, scratch, idx)
}

// EmitMeasureEnd completes a region measurement started with
// EmitMeasureStart, leaving the event delta in deltaReg (which may
// equal startReg's register only in ModeDestructive). scratch is
// clobbered in ModeStock.
func (e *Emitter) EmitMeasureEnd(deltaReg, startReg, scratch isa.Reg, idx int) {
	if e.mode == ModeDestructive {
		e.b.RdPMCDestructive(deltaReg, int64(idx))
		return
	}
	e.EmitRead(deltaReg, scratch, idx)
	e.b.Sub(deltaReg, deltaReg, startReg)
}

// EmitFinish emits the setup block (and, if enabled, the overflow
// signal handler) and resolves the EmitInit jump. Must be called after
// all reads have been emitted and exactly once.
func (e *Emitter) EmitFinish() {
	if e.finished {
		panic("limit: EmitFinish called twice")
	}
	e.finished = true
	b := e.b

	var handlerLabel string
	if e.handler {
		// The handler runs with R0 = SIGPMU, R1 = counter index. It
		// folds one write-limit chunk (2^31) into the virtual counter.
		handlerLabel = e.label("ovfhandler")
		b.Label(handlerLabel)
		b.BeginSymbol("limit.ovfhandler")
		b.Shl(isa.R1, isa.R1, 3)
		e.table.EmitLea(b, isa.R2)
		b.Add(isa.R2, isa.R2, isa.R1)
		b.Load(isa.R3, isa.R2, 0)
		b.AddImm(isa.R3, isa.R3, 1<<31)
		b.Store(isa.R2, 0, isa.R3)
		b.SigReturn()
		b.EndSymbol()
	}

	b.Label(e.label("setup"))
	b.BeginSymbol("limit.setup")
	// Enable userspace rdpmc (kernel patch).
	b.Syscall(kernel.SysLimitInit)
	// Open each counter against its virtual table slot.
	for i, spec := range e.counters {
		if e.policy == nil {
			b.MovImm(isa.R0, int64(spec.Event))
			b.MovImm(isa.R1, e.specFlags(spec))
			e.table.Word(i).EmitLea(b, isa.R2)
			b.Syscall(kernel.SysLimitOpen)
			continue
		}
		// Retry loop: R4 counts remaining attempts, R5 the next backoff.
		try, okL := e.label(fmt.Sprintf("try%d", i)), e.label(fmt.Sprintf("ok%d", i))
		b.MovImm(isa.R4, int64(e.policy.Retries))
		b.MovImm(isa.R5, e.policy.BackoffCycles)
		b.Label(try)
		b.MovImm(isa.R0, int64(spec.Event))
		b.MovImm(isa.R1, e.specFlags(spec))
		e.table.Word(i).EmitLea(b, isa.R2)
		b.Syscall(kernel.SysLimitOpen)
		b.MovImm(isa.R3, -2) // kernel.RetAgain: transient exhaustion
		b.Br(isa.CondNE, isa.R0, isa.R3, okL)
		b.MovImm(isa.R3, 0)
		b.Br(isa.CondEQ, isa.R4, isa.R3, e.label("fallback"))
		b.Mov(isa.R0, isa.R5)
		b.Syscall(kernel.SysNanosleep)
		b.Add(isa.R5, isa.R5, isa.R5) // exponential backoff
		b.AddImm(isa.R4, isa.R4, -1)
		b.Jmp(try)
		b.Label(okL)
		b.MovImm(isa.R3, -1) // kernel.RetErr: permanent failure degrades too
		b.Br(isa.CondEQ, isa.R0, isa.R3, e.label("fallback"))
	}
	// Register every read-critical region.
	if !e.noFixup {
		for _, r := range e.regions {
			b.MovImm(isa.R0, int64(r[0]))
			b.MovImm(isa.R1, int64(r[1]))
			b.Syscall(kernel.SysLimitRegisterFixup)
		}
	}
	if e.handler {
		b.MovImm(isa.R0, kernel.SIGPMU)
		b.MovLabel(isa.R1, handlerLabel)
		b.Syscall(kernel.SysSigaction)
	}
	b.Jmp(e.label("body"))
	b.EndSymbol()

	if e.policy != nil {
		// Degraded path: return whatever was opened, reopen everything
		// through the multiplexed perf path (closed-slot reuse keeps
		// the indices identical), raise the estimate flag, and enter
		// the fallback body. Fixup regions are never registered — the
		// rdpmc sequence is not executed on this path.
		b.Label(e.label("fallback"))
		b.BeginSymbol("limit.fallback")
		for i := range e.counters {
			b.MovImm(isa.R0, int64(i))
			b.Syscall(kernel.SysLimitClose) // no-op for never-opened indices
		}
		for _, spec := range e.counters {
			b.MovImm(isa.R0, int64(spec.Event))
			b.MovImm(isa.R1, e.specFlags(spec)|int64(kernel.FlagEstimated))
			b.Syscall(kernel.SysPerfOpen)
		}
		b.MovImm(isa.R3, 1)
		e.policy.FlagRef.EmitLea(b, isa.R2)
		b.Store(isa.R2, 0, isa.R3)
		b.Jmp(e.policy.FallbackLabel)
		b.EndSymbol()
	}
}

// specFlags returns the ring-flag argument for a counter spec.
func (e *Emitter) specFlags(spec CounterSpec) int64 {
	flags := int64(0)
	if spec.CountUser {
		flags |= int64(kernel.FlagUser)
	}
	if spec.CountKernel {
		flags |= int64(kernel.FlagKernel)
	}
	return flags
}

// Regions returns the collected read-critical PC ranges (for tests).
func (e *Emitter) Regions() [][2]int { return e.regions }

// FinalValue assembles the final 64-bit value of thread t's LiMiT
// counter idx after a run: the user-memory virtual counter plus the
// thread's saved hardware value.
func FinalValue(t *kernel.Thread, idx int) (uint64, error) {
	cs := t.Counters()
	if idx < 0 || idx >= len(cs) {
		return 0, fmt.Errorf("limit: thread %d has no counter %d", t.ID, idx)
	}
	tc := cs[idx]
	if tc.Kind != kernel.KindLimit {
		return 0, fmt.Errorf("limit: thread %d counter %d is %v, not limit", t.ID, idx, tc.Kind)
	}
	return t.Proc.Mem.Read64(tc.TableAddr) + tc.Saved, nil
}

// MustFinalValue is FinalValue but panics on error.
func MustFinalValue(t *kernel.Thread, idx int) uint64 {
	v, err := FinalValue(t, idx)
	if err != nil {
		panic(err)
	}
	return v
}

// ThreadValue returns the final 64-bit value of thread t's counter idx
// regardless of which access path ended up serving it, along with
// whether the value is a degraded estimate rather than an exact count.
// A LiMiT counter is exact (virtual table word + saved remainder)
// unless inheritance flagged it. A perf counter — including counters
// the OpenPolicy fallback or degraded clone inheritance reopened
// through the multiplexed path — reads its group's estimate (scaled
// by enabled / running time exactly as Linux's time_enabled/
// time_running estimate), and is flagged whenever it multiplexed or
// was opened by a degraded path. Callers get a flagged estimate, never
// a silently wrong exact-looking number.
func ThreadValue(t *kernel.Thread, idx int) (v uint64, estimated bool, err error) {
	cs := t.Counters()
	if idx < 0 || idx >= len(cs) {
		return 0, false, fmt.Errorf("limit: thread %d has no counter %d", t.ID, idx)
	}
	tc := cs[idx]
	switch tc.Kind {
	case kernel.KindLimit:
		return t.Proc.Mem.Read64(tc.TableAddr) + tc.Saved, tc.Estimated, nil
	case kernel.KindPerf:
		est := tc.Estimated
		if g := tc.Group(); g != nil {
			v = g.Estimate(0)
			est = est || g.Multiplexed()
		}
		return v, est, nil
	default:
		return 0, false, fmt.Errorf("limit: thread %d counter %d is %v", t.ID, idx, tc.Kind)
	}
}

// ProcessValue sums counter idx across every thread of the process
// like ProcessTotal, but tolerates mixed access paths: threads that
// degraded to the perf fallback contribute their scaled estimates, and
// the sum is flagged as an estimate if any contribution was one — the
// reporting-side half of graceful degradation.
func ProcessValue(proc *kernel.Process, threads []*kernel.Thread, idx int) (sum uint64, estimated bool, err error) {
	counted := 0
	for _, t := range threads {
		if t.Proc != proc {
			continue
		}
		cs := t.Counters()
		if idx >= len(cs) || cs[idx].Closed {
			continue
		}
		v, est, err := ThreadValue(t, idx)
		if err != nil {
			return 0, false, err
		}
		sum += v
		estimated = estimated || est
		counted++
	}
	if counted == 0 {
		return 0, false, fmt.Errorf("limit: no thread of process %d holds counter %d", proc.ID, idx)
	}
	return sum, estimated, nil
}

// ProcessTotal implements the paper's process-wide counting: it sums
// LiMiT counter idx over every thread of the process that opened it
// (threads of other processes in the slice are skipped). Because each
// thread's counter is virtualized independently, the sum is exact
// regardless of scheduling, migration, or thread lifetimes — the
// property that lets LiMiT characterize whole applications like MySQL.
func ProcessTotal(proc *kernel.Process, threads []*kernel.Thread, idx int) (uint64, error) {
	var sum uint64
	counted := 0
	for _, t := range threads {
		if t.Proc != proc {
			continue
		}
		cs := t.Counters()
		if idx >= len(cs) || cs[idx].Kind != kernel.KindLimit || cs[idx].Closed {
			continue
		}
		v, err := FinalValue(t, idx)
		if err != nil {
			return 0, err
		}
		sum += v
		counted++
	}
	if counted == 0 {
		return 0, fmt.Errorf("limit: no thread of process %d holds limit counter %d", proc.ID, idx)
	}
	return sum, nil
}
