// Package workloads builds the synthetic application models the
// reproduction studies in place of the paper's MySQL, Apache and
// Firefox binaries, plus the microbenchmarks behind the overhead and
// precision experiments. Each model is generated ISA code: worker
// threads share one (or two) program bodies, address their per-thread
// state through a tls.Layout, synchronize through the usync futex
// lock library, and are instrumented at lock acquire/release sites
// with a configurable counter access method — exactly the structure
// the paper instruments in the real applications.
package workloads

import (
	"fmt"
	"strings"
	"sync/atomic"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/papi"
	"limitsim/internal/perfevent"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/profile"
	"limitsim/internal/rec"
	"limitsim/internal/ref"
	"limitsim/internal/sampling"
	"limitsim/internal/tls"
	"limitsim/internal/usync"
)

// Symbol names used for sampling attribution of synchronization code.
const (
	SymAcquire = "sync.acquire"
	SymCS      = "sync.cs"
	SymRelease = "sync.release"
)

// Instrumentation selects how lock sites and thread totals are
// measured.
type Instrumentation struct {
	// Kind is the access method.
	Kind probe.Kind
	// Mode is the LiMiT read-sequence shape (limit only).
	Mode limit.Mode
	// SamplePeriod is the sampling period in events (sample only).
	SamplePeriod uint64
	// CountKernelRing makes the measurement counter count kernel-ring
	// cycles too, so a method's own kernel time lands inside measured
	// windows (the self-perturbation experiment).
	CountKernelRing bool
	// MeasureRings additionally opens a user+kernel cycles counter and
	// records per-thread totals for both, enabling the kernel/user
	// decomposition (limit only; ignored elsewhere).
	MeasureRings bool
	// NoFixup disables LiMiT fixup-region registration (ablation).
	NoFixup bool
	// Profile switches the body to region-attribution profiling (limit
	// only): every annotated region boundary reads the spec's event
	// bundle through a profile.Instrumenter and streams the deltas into
	// bounded per-region accumulators. This is the paper's title use
	// case — it is only practical because LiMiT reads cost tens of
	// nanoseconds. Per-operation (acq, cs) records are not collected in
	// this mode.
	Profile *profile.Spec
	// MuxGroups opens one multiplexed event group per entry at body
	// start, alongside whatever explicit instrumentation Kind selects.
	// The groups rotate through leftover counter slots under the
	// kernel's multiplexing scheduler and feed the per-rotation frame
	// stream the derived-metric engine consumes; they never perturb the
	// body itself (no reads are emitted — estimates are collected
	// host-side from frames).
	MuxGroups [][]perfevent.Spec
}

// LimitInstr is the default instrumentation for the case studies.
func LimitInstr() Instrumentation {
	return Instrumentation{Kind: probe.KindLimit, Mode: limit.ModeStock, MeasureRings: true}
}

// LimitCounters is how many LiMiT counters the instrumentation opens
// per thread. Each pins a hardware counter for the whole run, so
// multiplexed groups rotate through the rest.
func (in Instrumentation) LimitCounters() int {
	switch {
	case in.Kind != probe.KindLimit:
		return 0
	case in.Profiling():
		return len(in.Profile.Normalized().Events)
	case in.MeasureRings:
		return 2
	}
	return 1
}

// defaultMuxEvents is the flat event list DefaultMuxGroups chunks into
// groups: the events the built-in derived metrics (metrics.Builtin)
// read, ordered so narrow widths still pair each rate's numerator with
// its denominator inside one group (atomically co-scheduled).
var defaultMuxEvents = []perfevent.Spec{
	perfevent.UserSpec(pmu.EvCycles),
	perfevent.UserSpec(pmu.EvInstructions),
	perfevent.UserSpec(pmu.EvBranches),
	perfevent.UserSpec(pmu.EvBranchMiss),
	perfevent.AllRingsSpec(pmu.EvCycles),
	perfevent.KernelSpec(pmu.EvCycles),
	perfevent.UserSpec(pmu.EvLoads),
	perfevent.UserSpec(pmu.EvStores),
	perfevent.UserSpec(pmu.EvL1DMiss),
	perfevent.UserSpec(pmu.EvL2Miss),
	perfevent.UserSpec(pmu.EvLLCMiss),
	perfevent.UserSpec(pmu.EvDTLBMiss),
	perfevent.UserSpec(pmu.EvDTLBWalk),
	perfevent.UserSpec(pmu.EvAtomics),
	perfevent.AllRingsSpec(pmu.EvSyscalls),
	perfevent.AllRingsSpec(pmu.EvCtxSwitches),
}

// DefaultMuxGroups chunks the default metric event set into groups of
// the given width (events per group). Narrower groups fit leftover
// counters more easily but need more rotations to cover the set.
func DefaultMuxGroups(width int) [][]perfevent.Spec {
	if width <= 0 {
		width = 4
	}
	var groups [][]perfevent.Spec
	for i := 0; i < len(defaultMuxEvents); i += width {
		end := i + width
		if end > len(defaultMuxEvents) {
			end = len(defaultMuxEvents)
		}
		groups = append(groups, defaultMuxEvents[i:end])
	}
	return groups
}

// ProfileInstr is region-attribution profiling instrumentation with
// the given bundle spec (ring measurement follows the bundle: present
// exactly when it carries all-rings cycles).
func ProfileInstr(spec profile.Spec) Instrumentation {
	spec = spec.Normalized()
	in := Instrumentation{Kind: probe.KindLimit, Mode: limit.ModeStock, Profile: &spec}
	_, in.MeasureRings = spec.AllRingsCyclesIndex()
	return in
}

// hasRing reports whether per-thread user+kernel totals get recorded.
func (in Instrumentation) hasRing() bool {
	return in.MeasureRings && in.Kind == probe.KindLimit
}

// Profiling reports whether bodies build with region-attribution
// profiling: a profile spec on an access method cheap enough to carry
// it (probe.Kind.Profilable).
func (in Instrumentation) Profiling() bool {
	return in.Profile != nil && in.Kind.Profilable()
}

// Active reports whether the kind performs explicit reads (as opposed
// to passive sampling or no instrumentation).
func (in Instrumentation) Active() bool {
	switch in.Kind {
	case probe.KindLimit, probe.KindPerf, probe.KindPAPI, probe.KindRdtsc:
		return true
	}
	return false
}

// ThreadPlan describes one thread of the app. Host-spawned threads are
// created by Launch; Spawned plans describe threads the program itself
// creates at runtime via SysSpawn (listed so host-side analysis can
// locate their TLS blocks).
type ThreadPlan struct {
	Name    string
	Entry   string // body entry label
	Slot    int    // TLS slot index
	Body    int    // index into App.Bodies
	Seed    uint64
	Spawned bool // created by the program via SysSpawn, not by Launch
}

// BodyMeta describes one program body's instrumentation artifacts for
// host-side extraction.
type BodyMeta struct {
	Label string
	// LockRec holds (acquire-cycles, cs-cycles) records per lock
	// operation; zero-capacity when the body has no lock sites.
	LockRec rec.Buffer
	// BarrierRec holds per-episode barrier wait cycles (stride 1);
	// zero-capacity when the body has no barriers.
	BarrierRec rec.Buffer
	// TotalCycles is the per-thread measured total (user ring, or
	// user+kernel when CountKernelRing).
	TotalCycles ref.Ref
	// AllRingCycles is the per-thread user+kernel total (only when
	// MeasureRings with the limit kind).
	AllRingCycles ref.Ref
	HasRing       bool
	// Profiler owns the body's region accumulators (Profile
	// instrumentation only).
	Profiler *profile.Instrumenter
}

// ByName builds the named application model — mysql (version 5.1),
// mysql-5.1, mysql-4.1, mysql-3.23, apache, firefox or forkjoin — with
// its per-worker work scaled by scale (at least one unit), or returns
// nil for an unknown name.
func ByName(name string, ins Instrumentation, scale float64) *App {
	scaleN := func(n int) int { return max(1, int(float64(n)*scale)) }
	switch name {
	case "mysql", "mysql-5.1", "mysql-4.1", "mysql-3.23":
		ver := "5.1"
		if v, ok := strings.CutPrefix(name, "mysql-"); ok {
			ver = v
		}
		cfg := MySQLVersion(ver)
		cfg.TxnsPerWorker = scaleN(cfg.TxnsPerWorker)
		return BuildMySQL(cfg, ins)
	case "apache":
		cfg := DefaultApache()
		cfg.RequestsPerWorker = scaleN(cfg.RequestsPerWorker)
		return BuildApache(cfg, ins)
	case "firefox":
		cfg := DefaultFirefox()
		cfg.EventsPerThread = scaleN(cfg.EventsPerThread)
		return BuildFirefox(cfg, ins)
	case "forkjoin":
		cfg := DefaultForkJoin()
		cfg.Iterations = scaleN(cfg.Iterations)
		return BuildForkJoin(cfg, ins)
	}
	return nil
}

// App is a built workload ready to launch.
type App struct {
	Name   string
	Prog   *isa.Program
	Space  *mem.Space
	Layout *tls.Layout
	Plans  []ThreadPlan
	Bodies []BodyMeta
	Instr  Instrumentation
}

// Launch creates the app's process and threads on m. Threads receive
// their TLS slot index in tls.SlotReg.
func (a *App) Launch(m *machine.Machine) []*kernel.Thread {
	proc := m.Kern.NewProcess(a.Prog, a.Space)
	var threads []*kernel.Thread
	for _, p := range a.Plans {
		if p.Spawned {
			continue // the program creates this thread via SysSpawn
		}
		t := m.Kern.Spawn(proc, p.Name, a.Prog.MustEntry(p.Entry), p.Seed)
		t.SetReg(tls.SlotReg, uint64(p.Slot))
		threads = append(threads, t)
	}
	return threads
}

// Run launches the app on a fresh machine and executes to completion.
func (a *App) Run(mcfg machine.Config, limits machine.RunLimits) (*machine.Machine, machine.RunResult, []*kernel.Thread) {
	m := machine.New(mcfg)
	threads := a.Launch(m)
	res := m.Run(limits)
	return m, res, threads
}

// ThreadBase returns the TLS base for a plan's thread (for reading
// back its records).
func (a *App) ThreadBase(plan ThreadPlan) uint64 {
	return a.Layout.ThreadBase(plan.Slot)
}

// reader emits measurement reads for one program body under the
// configured access method.
type reader struct {
	ins   Instrumentation
	le    *limit.Emitter // limit kind
	ctrU  int
	ctrUK int
	fdRef ref.Ref // perf
	es    *papi.EventSet

	// prof is the region-attribution instrumenter (Profile mode only).
	prof *profile.Instrumenter

	// muxTables holds one (table address, event count) pair per
	// multiplexed group; the prolog opens them.
	muxTables []muxTable
}

type muxTable struct {
	addr uint64
	n    int
}

// enterRegion/exitRegion annotate a profiled region boundary; no-ops
// without Profile instrumentation, so bodies annotate unconditionally.
func (r *reader) enterRegion(name string, kind profile.RegionKind) {
	if r.prof != nil {
		r.prof.Enter(name, kind)
	}
}

func (r *reader) exitRegion() {
	if r.prof != nil {
		r.prof.Exit()
	}
}

// newReader reserves TLS state and constructs emitters. Must be
// called while the layout is still open. space backs the group tables
// for MuxGroups instrumentation (the tables are read-only at open, so
// every thread shares them).
func newReader(b *isa.Builder, layout *tls.Layout, space *mem.Space, ins Instrumentation) *reader {
	r := &reader{ins: ins}
	for _, specs := range ins.MuxGroups {
		r.muxTables = append(r.muxTables, muxTable{
			addr: perfevent.GroupTable(space, specs),
			n:    len(specs),
		})
	}
	spec := limit.UserCounter(pmu.EvCycles)
	if ins.CountKernelRing {
		spec = limit.AllRingsCounter(pmu.EvCycles)
	}
	switch ins.Kind {
	case probe.KindLimit:
		if ins.Profiling() {
			// The bundle's counters fill the PMU; the profiler's own
			// cycles (and all-rings cycles, when bundled) double as the
			// totals counters.
			pspec := ins.Profile.Normalized()
			r.le = limit.NewEmitter(b, ins.Mode, layout.Reserve(ins.LimitCounters()))
			if ins.NoFixup {
				r.le.DisableFixupRegistration()
			}
			r.prof = profile.NewInstrumenter(b, layout, r.le, pspec)
			r.ctrU = r.prof.CounterIndex(0)
			if i, ok := pspec.AllRingsCyclesIndex(); ok {
				r.ctrUK = r.prof.CounterIndex(i)
				r.ins.MeasureRings = true
			} else {
				r.ins.MeasureRings = false
			}
			break
		}
		r.le = limit.NewEmitter(b, ins.Mode, layout.Reserve(ins.LimitCounters()))
		if ins.NoFixup {
			r.le.DisableFixupRegistration()
		}
		r.ctrU = r.le.AddCounter(spec)
		if ins.MeasureRings {
			r.ctrUK = r.le.AddCounter(limit.AllRingsCounter(pmu.EvCycles))
		}
	case probe.KindPerf:
		r.fdRef = layout.Reserve(1)
	case probe.KindPAPI:
		pspec := perfevent.UserSpec(pmu.EvCycles)
		if ins.CountKernelRing {
			pspec = perfevent.AllRingsSpec(pmu.EvCycles)
		}
		r.es = papi.NewEventSetSpecs(layout.Reserve(papi.StateWords(1)), pspec)
	}
	return r
}

// prolog emits per-thread setup at body entry (after the TLS prolog).
func (r *reader) prolog(b *isa.Builder) {
	for _, mt := range r.muxTables {
		perfevent.EmitGroupOpen(b, mt.addr, mt.n)
	}
	switch r.ins.Kind {
	case probe.KindLimit:
		r.le.EmitInit()
	case probe.KindPerf:
		spec := perfevent.UserSpec(pmu.EvCycles)
		if r.ins.CountKernelRing {
			spec = perfevent.AllRingsSpec(pmu.EvCycles)
		}
		perfevent.EmitOpen(b, spec, isa.R2)
		r.fdRef.EmitStore(b, isa.R2, isa.R3)
	case probe.KindPAPI:
		r.es.EmitStart(b)
	case probe.KindSample:
		period := r.ins.SamplePeriod
		if period == 0 {
			period = 100_000
		}
		sampling.EmitStart(b, pmu.EvCycles, period)
	}
}

// read emits a cycles read into dst. Clobbers R0..R3. No-op (dst=0)
// for passive kinds.
func (r *reader) read(b *isa.Builder, dst isa.Reg) {
	switch r.ins.Kind {
	case probe.KindLimit:
		r.le.EmitRead(dst, isa.R3, r.ctrU)
	case probe.KindPerf:
		r.fdRef.EmitLoad(b, isa.R0)
		perfevent.EmitRead(b, isa.R0, dst)
	case probe.KindPAPI:
		r.es.EmitReadInto(b, 0, dst)
	case probe.KindRdtsc:
		b.RdCycle(dst)
	default:
		b.MovImm(dst, 0)
	}
}

// readRing emits a user+kernel cycles read (limit with MeasureRings
// only; dst=0 otherwise).
func (r *reader) readRing(b *isa.Builder, dst isa.Reg) {
	if r.ins.Kind == probe.KindLimit && r.ins.MeasureRings {
		r.le.EmitRead(dst, isa.R3, r.ctrUK)
		return
	}
	b.MovImm(dst, 0)
}

// epilog emits trailing blocks (the LiMiT setup block).
func (r *reader) epilog(b *isa.Builder) {
	if r.ins.Kind == probe.KindLimit {
		r.le.EmitFinish()
	}
}

// Register conventions for instrumented bodies: the wrapper owns
// R4..R6; bodies may use R7..R13 (R11/R13 carry the lock index and
// lock address across the wrapper when the caller sets them up);
// R14/R15 belong to TLS.
const (
	regT0  = isa.R4 // start value, then acquire delta
	regT1  = isa.R5 // post-acquire value (live across the CS body)
	regT2  = isa.R6 // end value, then CS delta
	regOpI = isa.R7 // conventional inner loop counter
	regTxn = isa.R8 // conventional outer loop counter
	regBnd = isa.R9 // conventional bound/compare scratch
)

// emitInstrumentedCS emits a measured lock/critical-section/unlock
// around body:
//
//	t0 = read; lock; t1 = read        (symbol sync.acquire)
//	body; t2 = read                   (symbol sync.cs)
//	unlock                            (symbol sync.release)
//	append (t1-t0, t2-t1) to buf
//
// The body must preserve R5 (t1) and must not touch R4/R6; reads and
// lock code clobber R0..R3. With passive instrumentation the reads and
// the record append are omitted (zero overhead), but the symbols remain
// for sampling attribution.
//
// With Profile instrumentation the site name becomes two regions —
// "<site>.acquire" (lock kind) around the acquire and "<site>.cs" (cs
// kind) around the held section — and the bounded region accumulators
// replace the per-operation records.
func emitInstrumentedCS(b *isa.Builder, r *reader, site string, word ref.Ref, spins int, buf rec.Buffer, body func()) {
	if r.prof != nil {
		b.BeginSymbol(SymAcquire)
		r.prof.Enter(site+".acquire", profile.KindLock)
		usync.EmitLock(b, word, spins)
		r.prof.Exit()
		b.EndSymbol()

		b.BeginSymbol(SymCS)
		r.prof.Enter(site+".cs", profile.KindCS)
		body()
		r.prof.Exit()
		b.EndSymbol()

		b.BeginSymbol(SymRelease)
		usync.EmitUnlock(b, word)
		b.EndSymbol()
		return
	}
	active := r.ins.Active()
	b.BeginSymbol(SymAcquire)
	if active {
		r.read(b, regT0)
	}
	usync.EmitLock(b, word, spins)
	if active {
		r.read(b, regT1)
		b.Sub(regT0, regT1, regT0) // acquire delta
	}
	b.EndSymbol()

	b.BeginSymbol(SymCS)
	body()
	if active {
		r.read(b, regT2)
		b.Sub(regT2, regT2, regT1) // cs delta
	}
	b.EndSymbol()

	b.BeginSymbol(SymRelease)
	usync.EmitUnlock(b, word)
	b.EndSymbol()

	if active {
		buf.EmitAppend(b, []isa.Reg{regT0, regT2}, isa.R0, isa.R1, isa.R2)
	}
}

// emitTotalsStart records the body's starting cycle values into the
// TLS words behind startRef/startRingRef.
func emitTotalsStart(b *isa.Builder, r *reader, startRef, startRingRef ref.Ref) {
	if !r.ins.Active() {
		return
	}
	r.read(b, regT0)
	startRef.EmitStore(b, regT0, isa.R1)
	if r.ins.MeasureRings && r.ins.Kind == probe.KindLimit {
		r.readRing(b, regT0)
		startRingRef.EmitStore(b, regT0, isa.R1)
	}
}

// emitTotalsEnd computes the body's total cycles (and ring totals) and
// stores them into totalRef/totalRingRef.
func emitTotalsEnd(b *isa.Builder, r *reader, startRef, totalRef, startRingRef, totalRingRef ref.Ref) {
	if !r.ins.Active() {
		return
	}
	r.read(b, regT2)
	startRef.EmitLoad(b, regT1)
	b.Sub(regT2, regT2, regT1)
	totalRef.EmitStore(b, regT2, isa.R1)
	if r.ins.MeasureRings && r.ins.Kind == probe.KindLimit {
		r.readRing(b, regT2)
		startRingRef.EmitLoad(b, regT1)
		b.Sub(regT2, regT2, regT1)
		totalRingRef.EmitStore(b, regT2, isa.R1)
	}
}

// emitComputeChunked emits n instructions of compute work in blocks of
// at most chunk, so preemption points occur at realistic intervals.
func emitComputeChunked(b *isa.Builder, n, chunk int64) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 200
	}
	for n > chunk {
		b.Compute(chunk)
		n -= chunk
	}
	b.Compute(n)
}

// emitComputeJitter emits a random amount of extra compute: between 0
// and chunks-1 blocks (chunks must be a power of two) of chunkInstrs
// each, drawn from the thread's RNG. Workload bodies use it so that
// region lengths form distributions rather than spikes. Clobbers rA
// and rB.
func emitComputeJitter(b *isa.Builder, rA, rB isa.Reg, chunks, chunkInstrs int64) {
	if chunks <= 1 {
		return
	}
	if chunks&(chunks-1) != 0 {
		panic("workloads: jitter chunks must be a power of two")
	}
	loop := uniqLabel("jit")
	done := uniqLabel("jitdone")
	b.Rand(rA)
	b.MovImm(rB, chunks-1)
	b.And(rA, rA, rB)
	b.MovImm(rB, 0)
	b.Label(loop)
	b.Br(isa.CondGE, rB, rA, done)
	b.Compute(chunkInstrs)
	b.AddImm(rB, rB, 1)
	b.Jmp(loop)
	b.Label(done)
}

// emitWalk emits a pointer walk touching `lines` cache lines starting
// at the address in ptr (stride 64B), generating realistic data-cache
// traffic. Clobbers ptr, cnt and bnd.
func emitWalk(b *isa.Builder, ptr, cnt, bnd isa.Reg, lines int64) {
	if lines <= 0 {
		return
	}
	loop := uniqLabel("walk")
	b.MovImm(cnt, 0)
	b.Label(loop)
	b.Load(bnd, ptr, 0)
	b.AddImm(ptr, ptr, 64)
	b.AddImm(cnt, cnt, 1)
	b.MovImm(bnd, lines)
	b.Br(isa.CondLT, cnt, bnd, loop)
}

// CollectProfile reads every profiled thread's region accumulators
// back and merges them into one deterministic profile for the app. The
// app must have been built with ProfileInstr.
func CollectProfile(app *App) (*profile.Profile, error) {
	var out *profile.Profile
	for bi := range app.Bodies {
		ins := app.Bodies[bi].Profiler
		if ins == nil {
			continue
		}
		var bases []uint64
		for _, plan := range app.Plans {
			if plan.Body != bi {
				continue
			}
			bases = append(bases, app.ThreadBase(plan))
		}
		p := ins.Collect(app.Space, bases)
		if out == nil {
			out = p
		} else if err := out.Merge(p); err != nil {
			return nil, err
		}
	}
	if out == nil {
		return nil, fmt.Errorf("workloads: %s was not built with profile instrumentation", app.Name)
	}
	out.App = app.Name
	return out, nil
}

// wlLabelSeq is atomic: workloads are built concurrently by the
// runner's worker pool. Label numbering never reaches generated bytes.
var wlLabelSeq atomic.Int64

func uniqLabel(prefix string) string {
	return fmt.Sprintf("wl.%s.%d", prefix, wlLabelSeq.Add(1))
}
