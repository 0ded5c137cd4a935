// Package pmu models a per-core performance monitoring unit: a small
// number of programmable hardware counters with event selection,
// privilege-ring filtering, overflow interrupts, and the write-width
// restriction of real x86 PMUs that motivates much of the reproduced
// paper's design.
//
// Two hardware quirks are modeled faithfully because LiMiT's design
// depends on them:
//
//  1. Counters are CounterWidth bits wide (48 by default), but a
//     software write can only set the low WriteWidth bits (31 by
//     default, matching Intel's sign-extended 32-bit MSR writes). The
//     kernel therefore cannot restore a large counter value on context
//     switch; LiMiT keeps hardware counts below 2^31 by folding
//     overflow into a 64-bit virtual counter in user memory.
//  2. Counter overflow past a configurable bit raises an interrupt
//     (PMI), which can land between the instructions of a userspace
//     read sequence.
//
// The paper's three proposed hardware enhancements are available as
// feature flags: 64-bit writable counters (e1), destructive reads (e2),
// and hardware counter virtualization (e3, consumed by the kernel's
// context-switch path).
package pmu

import (
	"fmt"
	"math/bits"
)

// Event identifies a countable architectural event.
type Event uint8

// Countable events.
const (
	EvCycles Event = iota
	EvInstructions
	EvLoads
	EvStores
	EvL1DMiss
	EvL2Miss
	EvLLCMiss
	EvBranches
	EvBranchMiss
	EvAtomics
	EvSyscalls
	EvCtxSwitches
	EvDTLBMiss
	EvDTLBWalk // full TLB miss requiring a page walk

	// NumEvents is the number of distinct events.
	NumEvents
)

var eventNames = [NumEvents]string{
	EvCycles:       "cycles",
	EvInstructions: "instructions",
	EvLoads:        "loads",
	EvStores:       "stores",
	EvL1DMiss:      "l1d-miss",
	EvL2Miss:       "l2-miss",
	EvLLCMiss:      "llc-miss",
	EvBranches:     "branches",
	EvBranchMiss:   "branch-miss",
	EvAtomics:      "atomics",
	EvSyscalls:     "syscalls",
	EvCtxSwitches:  "ctx-switches",
	EvDTLBMiss:     "dtlb-miss",
	EvDTLBWalk:     "dtlb-walk",
}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// MaxCounters is the most programmable counters a PMU can have:
// counter i occupies bit i of the 64-bit dispatch-table and
// pending-overflow masks.
const MaxCounters = 64

// eventEntry is one (event, ring) slot of the dispatch table: the
// omniscient accumulator and the mask of counters that watch the
// event.
type eventEntry struct {
	truth    uint64
	watchers uint64
}

// Ring is the privilege level at which events occur.
type Ring uint8

// Privilege rings.
const (
	RingUser Ring = iota
	RingKernel
)

func (r Ring) String() string {
	if r == RingUser {
		return "user"
	}
	return "kernel"
}

// CounterConfig programs one hardware counter.
type CounterConfig struct {
	Event       Event
	CountUser   bool
	CountKernel bool
	Enabled     bool
	// OverflowBit raises an interrupt when the counter value crosses
	// 1<<OverflowBit. Negative disables overflow interrupts.
	OverflowBit int
}

func (c CounterConfig) counts(r Ring) bool {
	if !c.Enabled {
		return false
	}
	if r == RingUser {
		return c.CountUser
	}
	return c.CountKernel
}

// Features describes the PMU's hardware capability set.
type Features struct {
	// NumCounters is the number of programmable counters.
	NumCounters int
	// CounterWidth is the counter width in bits (48 on 2011 x86).
	CounterWidth int
	// WriteWidth is how many low bits a software counter write can set
	// (31 on Intel: 32-bit sign-extended MSR writes). Enhancement e1
	// raises both widths to 64.
	WriteWidth int
	// DestructiveReads enables read-and-reset rdpmc (enhancement e2).
	DestructiveReads bool
	// HardwareVirtualization tags counter state per thread so the
	// kernel context switch need not save/restore counters
	// (enhancement e3). The PMU itself only advertises the flag; the
	// kernel consumes it.
	HardwareVirtualization bool
}

// WriteLimit returns the exclusive upper bound on values a software
// counter write can represent.
func (f Features) WriteLimit() uint64 {
	if f.WriteWidth >= 64 {
		return ^uint64(0)
	}
	return 1 << uint(f.WriteWidth)
}

// DefaultFeatures matches a 2011-era x86 PMU: 4 programmable 48-bit
// counters with 31-bit writes and no enhancements.
func DefaultFeatures() Features {
	return Features{NumCounters: 4, CounterWidth: 48, WriteWidth: 31}
}

// Enhanced64Bit returns DefaultFeatures with enhancement e1 (fully
// writable 64-bit counters).
func Enhanced64Bit() Features {
	f := DefaultFeatures()
	f.CounterWidth = 64
	f.WriteWidth = 64
	return f
}

// EnhancedDestructive returns DefaultFeatures with enhancement e2.
func EnhancedDestructive() Features {
	f := DefaultFeatures()
	f.DestructiveReads = true
	return f
}

// EnhancedHWVirtualization returns DefaultFeatures with enhancement e3.
func EnhancedHWVirtualization() Features {
	f := DefaultFeatures()
	f.HardwareVirtualization = true
	return f
}

type counter struct {
	// value and threshold lead the struct: bump touches only these two
	// fields once per watched event per instruction, so they sit at
	// offset 0/8 of the slot with cfg's cold bytes behind them.
	value uint64
	// threshold is 1<<cfg.OverflowBit, precomputed by Configure; zero
	// means overflow interrupts are disabled (no valid threshold is 0,
	// since OverflowBit 0 yields 1).
	threshold uint64
	cfg       CounterConfig
}

// PMU is one core's performance monitoring unit.
type PMU struct {
	feats    Features
	counters []counter
	mask     uint64 // value mask from CounterWidth
	pending  uint64 // bitmask of counters with a pending overflow interrupt

	// events is the per-(event, ring) dispatch table.
	//
	// truth accumulates every event regardless of counter programming:
	// an omniscient observer, used by experiments to compute true
	// totals that the paper obtained from long calibration runs.
	//
	// watchers is the bitmask of enabled counters whose event selector
	// and ring filter accept (ev, ring). It is updated by Configure —
	// the only place a counter's programming changes — so AddEvent's common
	// case ("no counter watches this event") is a single indexed
	// entry: one add, one load, one branch, instead of a scan over
	// every counter. The machine loop calls AddEvent several times per
	// simulated instruction, which made the scan the interpreter's
	// hottest path; sharing one entry for truth and watchers keeps
	// AddEvent within the inlining budget.
	// Laid out flat with the user ring in the first NumEvents slots:
	// AddUser then indexes with ev alone, which is what lets it fit
	// the inlining budget.
	events [2 * int(NumEvents)]eventEntry

	// Deferred retirement accounting. AddRetire runs once per simulated
	// instruction; when counters watch the retirement pair, bumping them
	// every step dominated the interpreter profile. Instead, while
	// deferBudget is nonzero AddRetire accumulates into defRetire
	// (packed sums), and flushRetire folds them in later — exact,
	// because counter values are modular sums and the budget is sized so
	// that no watched counter can cross its overflow threshold (or wrap)
	// inside the window, so no pending bit can be produced early or
	// late. Every observer of counter values, ground truth, or
	// programming flushes first (Read, Write, Configure, GroundTruth*,
	// and any kernel/user add to the retirement events, whose watchers
	// may share counters with the deferred stream); PMI-precision paths
	// degrade to per-step bumping automatically as a threshold nears,
	// because the recomputed budget reaches zero.
	// defRetire packs the whole deferral state into one word so the
	// per-instruction fast path is a single load and store: bits 48+
	// hold the remaining budget, bits [24,48) the deferred instruction
	// sum, bits [0,24) the deferred cycle sum. Budget and per-step
	// deltas are capped at deferStepMask (4095), so each 24-bit lane
	// tops out at 4095*4095 < 2^24 and lanes never carry.
	defRetire uint64
}

// New returns a PMU with the given features. All counters start
// disabled and zero.
func New(f Features) *PMU {
	p := new(PMU)
	p.Reset(f)
	return p
}

// Reset returns the PMU to the state New(f) builds: features f, every
// counter disabled and zero, no overflow pending, zero ground truth and
// no deferral window. The counter array is reused when it is large
// enough.
func (p *PMU) Reset(f Features) {
	if f.NumCounters <= 0 {
		panic("pmu: NumCounters must be positive")
	}
	if f.NumCounters > MaxCounters {
		panic(fmt.Sprintf("pmu: NumCounters must be at most %d", MaxCounters))
	}
	if f.CounterWidth <= 0 || f.CounterWidth > 64 {
		panic("pmu: CounterWidth out of range")
	}
	var mask uint64
	if f.CounterWidth == 64 {
		mask = ^uint64(0)
	} else {
		mask = (1 << uint(f.CounterWidth)) - 1
	}
	counters := p.counters[:0]
	if cap(counters) < f.NumCounters {
		counters = make([]counter, 0, f.NumCounters)
	}
	counters = counters[:f.NumCounters]
	clear(counters)
	*p = PMU{feats: f, counters: counters, mask: mask}
}

// Features returns the PMU's capability set.
func (p *PMU) Features() Features { return p.feats }

// NumCounters returns the number of programmable counters.
func (p *PMU) NumCounters() int { return len(p.counters) }

func (p *PMU) check(idx int) {
	if idx < 0 || idx >= len(p.counters) {
		panic(fmt.Sprintf("pmu: counter index %d out of range [0,%d)", idx, len(p.counters)))
	}
}

// Configure programs counter idx. Programming clears any pending
// overflow on that counter but preserves its value (software writes the
// value separately, as on real hardware).
//
// Configure is the only writer of the dispatch table's watcher masks,
// so counter idx's bit can only sit in the user and kernel entries of
// its outgoing event: reprogramming clears those two and sets the new
// ones, independent of NumEvents.
func (p *PMU) Configure(idx int, cfg CounterConfig) {
	p.check(idx)
	p.syncRetire() // deferred retirements precede the reprogramming
	c := &p.counters[idx]
	bit := uint64(1) << uint(idx)
	if old := c.cfg.Event; old < NumEvents {
		p.events[old].watchers &^= bit
		p.events[NumEvents+old].watchers &^= bit
	}
	c.cfg = cfg
	if ob := cfg.OverflowBit; ob >= 0 && ob < 64 {
		c.threshold = 1 << uint(ob)
	} else {
		c.threshold = 0
	}
	p.pending &^= bit
	if !cfg.Enabled || cfg.Event >= NumEvents {
		return
	}
	if cfg.CountUser {
		p.events[cfg.Event].watchers |= bit
	}
	if cfg.CountKernel {
		p.events[NumEvents+cfg.Event].watchers |= bit
	}
}

// Config returns counter idx's current programming.
func (p *PMU) Config(idx int) CounterConfig {
	p.check(idx)
	return p.counters[idx].cfg
}

// Read returns counter idx's current value (rdpmc and kernel MSR reads
// both see this).
func (p *PMU) Read(idx int) uint64 {
	p.check(idx)
	p.flushRetire() // the window survives: reading mutates nothing
	return p.counters[idx].value
}

// ReadAndReset destructively reads counter idx (enhancement e2). It
// panics if the feature is absent; callers gate on Features.
func (p *PMU) ReadAndReset(idx int) uint64 {
	if !p.feats.DestructiveReads {
		panic("pmu: destructive read without DestructiveReads feature")
	}
	p.check(idx)
	p.syncRetire()
	v := p.counters[idx].value
	p.counters[idx].value = 0
	p.pending &^= 1 << uint(idx)
	return v
}

// Write sets counter idx's value. Only the low WriteWidth bits are
// honored, mirroring Intel's MSR write restriction; higher bits are
// silently dropped (the caller — the kernel — is responsible for
// keeping values in range, which is exactly the constraint LiMiT's
// overflow folding exists to satisfy).
func (p *PMU) Write(idx int, v uint64) {
	p.check(idx)
	p.syncRetire()
	var wmask uint64
	if p.feats.WriteWidth >= 64 {
		wmask = ^uint64(0)
	} else {
		wmask = (1 << uint(p.feats.WriteWidth)) - 1
	}
	p.counters[idx].value = v & wmask
	p.pending &^= 1 << uint(idx)
}

// WriteLimit returns the exclusive upper bound on values Write can
// represent.
func (p *PMU) WriteLimit() uint64 { return p.feats.WriteLimit() }

// AddEvent advances every enabled counter whose event and ring filter
// match by n, records ground truth, and accumulates pending overflow
// interrupts for counters that crossed their overflow threshold.
//
// The ground-truth update and the watcher lookup share one table
// index; when no counter watches (ev, ring) — the dominant case in the
// interpreter hot loop — the call costs two indexed adds and a branch.
func (p *PMU) AddEvent(ring Ring, ev Event, n uint64) {
	e := &p.events[int(ring)*int(NumEvents)+int(ev)]
	e.truth += n
	if e.watchers != 0 {
		p.addSlow(ev, e.watchers, n)
	}
}

// AddUser and AddKernel are AddEvent with the ring fixed. The generic
// form is one parameter over the inlining budget; these two fit, so
// the interpreter's per-instruction count sites and the kernel-work
// accounting pay no call in the nobody-watching case.

// AddUser records ev in the user ring.
func (p *PMU) AddUser(ev Event, n uint64) {
	e := &p.events[ev]
	e.truth += n
	if e.watchers != 0 {
		p.addUserSlow(ev, n)
	}
}

// AddKernel records ev in the kernel ring.
func (p *PMU) AddKernel(ev Event, n uint64) {
	e := &p.events[ev+NumEvents] // Event is uint8; NumEvents+ev < 2*NumEvents fits
	e.truth += n
	if e.watchers != 0 {
		p.addKernelSlow(ev, n)
	}
}

// AddRetire records one instruction's retirement: instrs in
// EvInstructions and cycles in EvCycles, both in the user ring, in
// that order. It is AddUser twice with the slow paths fused — the
// interpreter calls it once per instruction, and in limit mode both
// events are watched, so the split form paid two out-of-line calls
// per instruction.
//
// Callers must keep instrs <= max(1, cycles) — true of any real
// retirement stream (an instruction costs at least one cycle, and the
// batched-compute op retires one instruction per cycle) — so bounding
// cycles bounds both deferral lanes.
//
// The guard admits a step into the deferral window only when cycles is
// below the remaining budget — a stricter test than the window
// requires (< 2^12 would do), chosen because it folds the
// budget-nonzero and step-small-enough checks into one compare that
// fits the inlining budget. Ground truth defers along with the bumps;
// every observer flushes first.
func (p *PMU) AddRetire(instrs, cycles uint64) {
	if p.defRetire>>48 > cycles {
		p.defRetire += instrs<<24 + cycles - 1<<48
		return
	}
	p.addRetireSlow(instrs, cycles)
}

// Deferral window sizing: a deferred step may add at most deferStepMask
// to each retirement event (larger steps — e.g. big batched compute
// ops — take the immediate path), so a budget of rem>>deferStepBits
// steps can never move a counter rem closer to a crossing. The window
// cap doubles as the budget bound that lets AddRetire fold its two
// guards (budget nonzero, step small enough) into one compare.
const (
	deferStepBits  = 12
	deferStepMask  = 1<<deferStepBits - 1
	maxDeferWindow = deferStepMask
)

// addRetireSlow is the out-of-window retirement path: record ground
// truth, fold any deferred sums, bump the watching counters, and open
// a fresh window.
//
//go:noinline
func (p *PMU) addRetireSlow(instrs, cycles uint64) {
	p.events[EvInstructions].truth += instrs
	p.events[EvCycles].truth += cycles
	p.flushRetire()
	p.bumpRetire(instrs, cycles)
	p.recomputeDeferBudget()
}

// flushRetire folds the deferred retirement sums into ground truth and
// the watched counters. Modular addition commutes with itself, and the
// window invariant guarantees no crossing occurred inside it, so the
// fold is byte-exact with per-step bumping. Watcher sets cannot have
// changed while the sums accumulated: reprogramming syncs first.
func (p *PMU) flushRetire() {
	d := p.defRetire
	i, c := d>>24&(1<<24-1), d&(1<<24-1)
	if i|c == 0 {
		return
	}
	p.defRetire = d >> 48 << 48 // sums applied; the window survives
	p.events[EvInstructions].truth += i
	p.events[EvCycles].truth += c
	p.bumpRetire(i, c)
}

// syncRetire flushes and kills the deferral window; used by every
// operation that mutates counter values, programming, or watcher sets.
// The next AddRetire recomputes a fresh budget.
func (p *PMU) syncRetire() {
	p.flushRetire()
	p.defRetire = 0
}

// recomputeDeferBudget sizes the deferral window: the number of
// ≤deferStepMask-per-event steps guaranteed not to bring any watched
// retirement counter to its overflow threshold or full-width wrap —
// the two transitions bump can observe. Counters without a threshold
// never produce pending bits, so only their final modular value
// matters, which deferral preserves exactly; they impose no bound.
func (p *PMU) recomputeDeferBudget() {
	p.defRetire = 0
	w := uint64(maxDeferWindow)
	for m := p.events[EvInstructions].watchers | p.events[EvCycles].watchers; m != 0; {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		c := &p.counters[i]
		if c.threshold == 0 {
			continue
		}
		rem := p.mask - c.value + 1 // distance to full-width wrap
		if rem == 0 {
			rem = ^uint64(0) // 64-bit counter at zero: wrap unreachable
		}
		if th := c.threshold; c.value < th && th-c.value < rem {
			rem = th - c.value
		}
		if steps := rem >> deferStepBits; steps < w {
			w = steps
		}
	}
	p.defRetire = w << 48
}

// bumpRetire applies a retirement pair (or a folded window of them) to
// every watching counter, in the same ascending-index order per event
// as the pre-dispatch-table scan.
func (p *PMU) bumpRetire(instrs, cycles uint64) {
	m := p.events[EvInstructions].watchers
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		p.bump(i, instrs)
	}
	m = p.events[EvCycles].watchers
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		p.bump(i, cycles)
	}
}

// addUserSlow and addKernelSlow are addSlow with the watcher mask
// re-read from the fixed ring's table half. They repeat addSlow's body
// rather than call it: the watched path runs twice per instruction
// when cycles and instructions are both counted (the limit-mode
// default), and the extra frame was visible in profiles.

//go:noinline
func (p *PMU) addUserSlow(ev Event, n uint64) {
	if ev <= EvInstructions {
		p.syncRetire() // this add may advance a retirement-watching counter
	}
	m := p.events[ev].watchers
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		p.bump(i, n)
	}
}

//go:noinline
func (p *PMU) addKernelSlow(ev Event, n uint64) {
	if ev <= EvInstructions {
		p.syncRetire() // a CountUser+CountKernel counter may also watch retirement
	}
	m := p.events[int(NumEvents)+int(ev)].watchers
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		p.bump(i, n)
	}
}

// addSlow bumps the watching counters. Kept out of line so AddEvent
// inlines into every count site — the common "nobody watches this
// event" case is then add, load, branch, with no call.
func (p *PMU) addSlow(ev Event, m, n uint64) {
	if ev <= EvInstructions {
		p.syncRetire()
	}
	// Counters advance in ascending index order, exactly as the
	// pre-dispatch-table scan did.
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		p.bump(i, n)
	}
}

// bump advances counter i by n with overflow-threshold crossing
// detection: the counter moved from below the threshold to at-or-above
// it, or wrapped the full width.
func (p *PMU) bump(i int, n uint64) {
	c := &p.counters[i]
	before := c.value
	c.value = (before + n) & p.mask
	if th := c.threshold; th != 0 {
		if (before < th && c.value >= th) || c.value < before {
			p.pending |= 1 << uint(i)
		}
	}
}

// TakePendingOverflows returns and clears the bitmask of counters with
// pending overflow interrupts. The kernel's burst loop calls this after
// every interpreter segment — cpu.Core.Run ends one at the instruction
// that leaves a bit pending — and routes nonzero masks to the PMI
// handler.
func (p *PMU) TakePendingOverflows() uint64 {
	m := p.pending
	if m != 0 {
		p.pending = 0
	}
	return m
}

// HasPending reports whether any overflow interrupt is pending without
// consuming it.
func (p *PMU) HasPending() bool { return p.pending != 0 }

// GroundTruth returns the omniscient count of ev in ring.
func (p *PMU) GroundTruth(ev Event, ring Ring) uint64 {
	p.flushRetire()
	return p.events[int(ring)*int(NumEvents)+int(ev)].truth
}

// GroundTruthTotal returns user+kernel ground truth for ev.
func (p *PMU) GroundTruthTotal(ev Event) uint64 {
	p.flushRetire()
	return p.events[ev].truth + p.events[int(NumEvents)+int(ev)].truth
}
