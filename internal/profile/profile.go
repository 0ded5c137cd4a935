// Package profile is the region-attribution profiler built on top of
// LiMiT's cheap reads — the reusable layer behind the paper's title
// deliverable, rapid identification of architectural bottlenecks.
//
// Programs annotate named code regions (lock acquires, critical
// sections, request phases, syscall spans) with enter/exit
// instrumentation emitted by an Instrumenter. Each boundary reads a
// configurable multi-event bundle (cycles, L1D misses, branch misses,
// all-rings cycles for the kernel share) with the LiMiT rdpmc
// sequence — affordable at every region boundary only because each
// read costs tens of nanoseconds — and streams the per-thread deltas
// into bounded per-region accumulators in TLS: count, per-event sums,
// min/max and a log2 cycle histogram. No per-entry samples are ever
// buffered, so soak-length runs profile in constant memory.
//
// Host-side, Collect folds the per-thread accumulators into a Profile
// that merges deterministically across threads and runs; the report
// layer ranks regions by attributed self-cost and classifies each as
// memory-bound, compute-bound, kernel-bound or contention.
package profile

import (
	"fmt"
	"sync/atomic"

	"limitsim/internal/isa"
	"limitsim/internal/limit"
	"limitsim/internal/pmu"
	"limitsim/internal/ref"
	"limitsim/internal/tls"
)

// RegionKind classifies what a region's cost means, steering the
// bottleneck classification (lock regions report contention, not
// memory behavior).
type RegionKind uint8

// Region kinds.
const (
	// KindPhase is a generic code phase (parse, handle, decode...).
	KindPhase RegionKind = iota
	// KindLock is a lock-acquire or wait span: its cycles are
	// serialization cost, not useful work.
	KindLock
	// KindCS is a critical section (lock held).
	KindCS
	// KindIO is a syscall/IO span.
	KindIO
)

var kindNames = [...]string{
	KindPhase: "phase",
	KindLock:  "lock",
	KindCS:    "cs",
	KindIO:    "io",
}

func (k RegionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// BundleEvent is one event of the boundary read bundle.
type BundleEvent struct {
	Event pmu.Event
	// AllRings counts the event in kernel and user ring; the delta
	// against the matching user-ring event yields the kernel share.
	AllRings bool
}

func (ev BundleEvent) String() string {
	if ev.AllRings {
		return ev.Event.String() + ":k"
	}
	return ev.Event.String()
}

// CounterSpec returns the limit counter declaration for the event.
func (ev BundleEvent) CounterSpec() limit.CounterSpec {
	if ev.AllRings {
		return limit.AllRingsCounter(ev.Event)
	}
	return limit.UserCounter(ev.Event)
}

// HistBuckets is the fixed per-region log2 cycle histogram size:
// bucket i counts region executions of [2^i, 2^(i+1)) cycles, with the
// last bucket absorbing everything longer.
const HistBuckets = 32

// Spec configures the profiler: the boundary read bundle, the measure
// stride (instrumentation density) and the accumulator shape.
type Spec struct {
	// Events is the boundary read bundle. Events[0] must be the
	// user-ring cycles counter — every derived rate and the histogram
	// hang off it.
	Events []BundleEvent
	// Stride measures every Stride-th execution of each region (1 =
	// every execution). Densities below 1 trade attribution coverage
	// for overhead along the F2 curve; sums scale back by Stride in
	// reports.
	Stride int
	// Hist enables the per-region log2 cycle-length histogram.
	Hist bool
	// MaxRegions bounds how many distinct regions a body may define;
	// the TLS block is pre-reserved before code emission because the
	// layout freezes at Alloc time.
	MaxRegions int
}

// DefaultSpec is the standard bottleneck bundle: user cycles, all-ring
// cycles (kernel share), L1D misses and branch misses — exactly four
// counters, filling the stock PMU.
func DefaultSpec() Spec {
	return Spec{
		Events: []BundleEvent{
			{Event: pmu.EvCycles},
			{Event: pmu.EvCycles, AllRings: true},
			{Event: pmu.EvL1DMiss},
			{Event: pmu.EvBranchMiss},
		},
		Stride:     1,
		Hist:       true,
		MaxRegions: 16,
	}
}

// Normalized fills defaults and validates the bundle shape.
func (s Spec) Normalized() Spec {
	if len(s.Events) == 0 {
		s.Events = DefaultSpec().Events
	}
	if s.Events[0].Event != pmu.EvCycles || s.Events[0].AllRings {
		panic("profile: Spec.Events[0] must be the user-ring cycles counter")
	}
	if s.Stride < 1 {
		s.Stride = 1
	}
	if s.MaxRegions <= 0 {
		s.MaxRegions = 16
	}
	return s
}

// AllRingsCyclesIndex returns the bundle index of the all-rings cycles
// event, if present.
func (s Spec) AllRingsCyclesIndex() (int, bool) {
	for i, ev := range s.Events {
		if ev.Event == pmu.EvCycles && ev.AllRings {
			return i, true
		}
	}
	return 0, false
}

// EventIndex returns the bundle index of a user-ring event, if present.
func (s Spec) EventIndex(ev pmu.Event) (int, bool) {
	for i, be := range s.Events {
		if be.Event == ev && !be.AllRings {
			return i, true
		}
	}
	return 0, false
}

// Per-region TLS accumulator layout, in words. The block is written
// only by generated code; Collect reads it back host-side.
const (
	fldCount     = 0 // measured executions
	fldGate      = 1 // stride countdown
	fldMeasuring = 2 // 1 while a strided measurement is open
	fldStart     = 3 // K start values, then K sums, then min, max, hist
)

// regionWords returns the per-region TLS block size for the spec.
func (s Spec) regionWords() int {
	k := len(s.Events)
	n := fldStart + 2*k + 2
	if s.Hist {
		n += HistBuckets
	}
	return n
}

// region is one emit-time region definition. Identity is lexical:
// (parent, name) — re-entering the same Enter site accumulates into
// the same block.
type region struct {
	id     int
	name   string
	path   string
	parent int // index into Instrumenter.regions, -1 for roots
	kind   RegionKind
	base   ref.Ref
}

// Instrumenter emits region enter/exit instrumentation for one program
// body and owns its per-region TLS accumulators. Create it while the
// tls.Layout is still open (before Alloc); the full MaxRegions block
// is reserved up front because regions are defined during body
// emission, after the layout froze.
//
// Enter/Exit clobber R3..R6 only, so they compose with the workload
// register conventions (bodies own R7..R13, reads clobber R0..R3).
type Instrumenter struct {
	b       *isa.Builder
	e       *limit.Emitter
	spec    Spec
	ctrs    []int // limit counter index per bundle event
	block   ref.Ref
	regions []*region
	byKey   map[string]*region
	stack   []int
}

// labelSeq is package-global: multiple instrumenters may share one
// builder (multi-body programs), so labels must be unique across them.
// Atomic because independent programs are built concurrently by the
// runner's worker pool; numbering never reaches generated bytes.
var labelSeq atomic.Int64

// NewInstrumenter reserves TLS space for the profiler and declares the
// bundle's counters on e (which must not have called EmitInit yet).
func NewInstrumenter(b *isa.Builder, layout *tls.Layout, e *limit.Emitter, spec Spec) *Instrumenter {
	spec = spec.Normalized()
	ins := &Instrumenter{
		b:     b,
		e:     e,
		spec:  spec,
		block: layout.Reserve(spec.MaxRegions * spec.regionWords()),
		byKey: map[string]*region{},
	}
	for _, ev := range spec.Events {
		ins.ctrs = append(ins.ctrs, e.AddCounter(ev.CounterSpec()))
	}
	return ins
}

// Spec returns the normalized profiling spec.
func (ins *Instrumenter) Spec() Spec { return ins.spec }

// CounterIndex returns the limit counter index of bundle event i, so
// callers can reuse the profiler's counters (e.g. for body totals)
// instead of opening duplicates.
func (ins *Instrumenter) CounterIndex(i int) int { return ins.ctrs[i] }

// define resolves (current parent, name) to a region, creating it on
// first sight.
func (ins *Instrumenter) define(name string, kind RegionKind) *region {
	parent := -1
	path := name
	if n := len(ins.stack); n > 0 {
		parent = ins.stack[n-1]
		path = ins.regions[parent].path + "/" + name
	}
	key := fmt.Sprintf("%d/%s", parent, name)
	if r, ok := ins.byKey[key]; ok {
		return r
	}
	if len(ins.regions) >= ins.spec.MaxRegions {
		panic(fmt.Sprintf("profile: more than MaxRegions=%d regions (defining %q)", ins.spec.MaxRegions, path))
	}
	r := &region{
		id:     len(ins.regions),
		name:   name,
		path:   path,
		parent: parent,
		kind:   kind,
		base:   ins.block.Word(len(ins.regions) * ins.spec.regionWords()),
	}
	ins.regions = append(ins.regions, r)
	ins.byKey[key] = r
	return r
}

func (ins *Instrumenter) label(s string) string {
	return fmt.Sprintf("profile.%s.%d", s, labelSeq.Add(1))
}

// field returns region r's TLS word at index i.
func (r *region) field(i int) ref.Ref { return r.base.Word(i) }

// Enter emits the region-entry instrumentation: the stride gate (when
// Stride > 1) and one LiMiT read per bundle event stored into the
// region's start words. Clobbers R3..R6. Regions nest lexically —
// every Enter must be paired with an Exit in emission order.
func (ins *Instrumenter) Enter(name string, kind RegionKind) {
	r := ins.define(name, kind)
	ins.stack = append(ins.stack, r.id)
	b := ins.b
	k := len(ins.spec.Events)

	end := ""
	if ins.spec.Stride > 1 {
		end = ins.label("enterend")
		measure := ins.label("measure")
		// gate == 0: measure this execution and rearm; else skip.
		r.field(fldGate).EmitLoad(b, isa.R5)
		b.MovImm(isa.R6, 0)
		b.Br(isa.CondEQ, isa.R5, isa.R6, measure)
		b.AddImm(isa.R5, isa.R5, -1)
		r.field(fldGate).EmitStore(b, isa.R5, isa.R3)
		r.field(fldMeasuring).EmitStore(b, isa.R6, isa.R3)
		b.Jmp(end)
		b.Label(measure)
		b.MovImm(isa.R5, int64(ins.spec.Stride-1))
		r.field(fldGate).EmitStore(b, isa.R5, isa.R3)
		b.MovImm(isa.R5, 1)
		r.field(fldMeasuring).EmitStore(b, isa.R5, isa.R3)
	}
	for i := 0; i < k; i++ {
		ins.e.EmitRead(isa.R4, isa.R3, ins.ctrs[i])
		r.field(fldStart+i).EmitStore(b, isa.R4, isa.R3)
	}
	if end != "" {
		b.Label(end)
	}
}

// Exit emits the region-exit instrumentation for the innermost open
// region: one read per bundle event folded into the region's sums,
// count/min/max maintenance and (when enabled) the log2 cycle
// histogram update. Clobbers R3..R6.
func (ins *Instrumenter) Exit() {
	if len(ins.stack) == 0 {
		panic("profile: Exit without matching Enter")
	}
	r := ins.regions[ins.stack[len(ins.stack)-1]]
	ins.stack = ins.stack[:len(ins.stack)-1]
	b := ins.b
	k := len(ins.spec.Events)
	sum := func(i int) ref.Ref { return r.field(fldStart + k + i) }
	minF := r.field(fldStart + 2*k)
	maxF := r.field(fldStart + 2*k + 1)

	end := ins.label("exitend")
	if ins.spec.Stride > 1 {
		r.field(fldMeasuring).EmitLoad(b, isa.R5)
		b.MovImm(isa.R6, 0)
		b.Br(isa.CondEQ, isa.R5, isa.R6, end)
	}

	// Event 0 (cycles) first; its delta survives in R6 for min/max and
	// the histogram.
	for i := 0; i < k; i++ {
		ins.e.EmitRead(isa.R4, isa.R3, ins.ctrs[i])
		r.field(fldStart+i).EmitLoad(b, isa.R5)
		b.Sub(isa.R4, isa.R4, isa.R5)
		if i == 0 {
			b.Mov(isa.R6, isa.R4)
		}
		sum(i).EmitLoad(b, isa.R5)
		b.Add(isa.R4, isa.R4, isa.R5)
		sum(i).EmitStore(b, isa.R4, isa.R3)
	}

	// count++, with first-sample min/max seeding (TLS starts zeroed, so
	// an unconditional min would stick at zero).
	r.field(fldCount).EmitLoad(b, isa.R4)
	b.AddImm(isa.R4, isa.R4, 1)
	r.field(fldCount).EmitStore(b, isa.R4, isa.R3)
	first := ins.label("first")
	merged := ins.label("minmax")
	b.MovImm(isa.R5, 1)
	b.Br(isa.CondEQ, isa.R4, isa.R5, first)
	skipMin := ins.label("skipmin")
	minF.EmitLoad(b, isa.R5)
	b.Br(isa.CondGE, isa.R6, isa.R5, skipMin)
	minF.EmitStore(b, isa.R6, isa.R3)
	b.Label(skipMin)
	skipMax := ins.label("skipmax")
	maxF.EmitLoad(b, isa.R5)
	b.Br(isa.CondLE, isa.R6, isa.R5, skipMax)
	maxF.EmitStore(b, isa.R6, isa.R3)
	b.Label(skipMax)
	b.Jmp(merged)
	b.Label(first)
	minF.EmitStore(b, isa.R6, isa.R3)
	maxF.EmitStore(b, isa.R6, isa.R3)
	b.Label(merged)

	if ins.spec.Hist {
		// R5 = min(floor(log2(delta)), HistBuckets-1), then bump the
		// bucket word.
		loop := ins.label("histloop")
		done := ins.label("histdone")
		ok := ins.label("histok")
		b.Mov(isa.R4, isa.R6)
		b.MovImm(isa.R5, 0)
		b.MovImm(isa.R3, 2)
		b.Label(loop)
		b.Br(isa.CondLT, isa.R4, isa.R3, done)
		b.Shr(isa.R4, isa.R4, 1)
		b.AddImm(isa.R5, isa.R5, 1)
		b.Jmp(loop)
		b.Label(done)
		b.MovImm(isa.R3, HistBuckets)
		b.Br(isa.CondLT, isa.R5, isa.R3, ok)
		b.MovImm(isa.R5, HistBuckets-1)
		b.Label(ok)
		b.Shl(isa.R5, isa.R5, 3)
		r.field(fldStart+2*k+2).EmitLea(b, isa.R4)
		b.Add(isa.R4, isa.R4, isa.R5)
		b.Load(isa.R3, isa.R4, 0)
		b.AddImm(isa.R3, isa.R3, 1)
		b.Store(isa.R4, 0, isa.R3)
	}
	b.Label(end)
}

// Region wraps body in Enter/Exit.
func (ins *Instrumenter) Region(name string, kind RegionKind, body func()) {
	ins.Enter(name, kind)
	body()
	ins.Exit()
}
