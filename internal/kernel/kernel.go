// Package kernel implements the simulated operating system: processes,
// threads, a preemptive per-core scheduler with work stealing, futexes,
// signals, and — central to the reproduced paper — three performance-
// counter access paths:
//
//   - a perf_event-style syscall interface (the heavyweight baseline),
//   - a sampling profiler driven by counter-overflow interrupts,
//   - the LiMiT kernel patch: userspace rdpmc enablement, per-thread
//     counter virtualization across context switches, overflow folding
//     into 64-bit user-memory virtual counters, and the PC-rewind fixup
//     that makes multi-instruction userspace read sequences atomic
//     without locks.
//
// The kernel runs no simulated instructions of its own; its work is
// modeled as cycle costs charged in the kernel privilege ring on the
// core where it executes, so ring-filtered counters observe a realistic
// user/kernel split.
package kernel

import (
	"fmt"

	"limitsim/internal/cpu"
	"limitsim/internal/isa"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/trace"
)

// Costs fixes the cycle price of each kernel operation. Defaults are
// calibrated so that a perf_event counter-read syscall costs roughly a
// microsecond at the nominal 3 GHz while a LiMiT userspace read costs
// low tens of nanoseconds, matching the one-to-two orders of magnitude
// the paper reports.
type Costs struct {
	SyscallEntry uint64 // kernel-side trap entry
	SyscallExit  uint64 // return to user
	Simple       uint64 // trivial handlers (gettid, yield bookkeeping)
	Futex        uint64 // futex wait/wake handler
	Nanosleep    uint64
	Sigaction    uint64

	PerfOpen  uint64
	PerfRead  uint64
	PerfReset uint64
	PerfClose uint64

	LimitInit  uint64 // enable userspace rdpmc for the process
	LimitOpen  uint64 // allocate and program a virtualized counter
	LimitFixup uint64 // register a read-critical fixup region

	Spawn uint64 // thread creation
	Clone uint64 // thread creation with counter inheritance
	Exit  uint64 // thread teardown and resource reclamation

	CtxSwitchBase uint64 // scheduler + address-space switch
	MSRRead       uint64 // per-counter save on deschedule
	MSRWrite      uint64 // per-counter restore on schedule
	VCpuSwitch    uint64 // tenant (guest-scheduler) residency switch

	GroupOpen uint64 // validate and install one event group
	GroupRead uint64 // scaled-estimate read handler
	MuxRotate uint64 // group rotation handler (MSR traffic priced on top)

	SignalDeliver uint64
	SigReturn     uint64

	PMIHandler   uint64 // overflow interrupt entry/dispatch
	OverflowFold uint64 // folding 2^31 into a virtual counter
	SampleRecord uint64 // storing one PC sample

	SampleStart uint64
	SampleStop  uint64

	// IOBase is the fixed part of a SysIO call; the variable part
	// scales with the byte count.
	IOBase uint64
}

// DefaultCosts returns the calibrated cost set.
func DefaultCosts() Costs {
	return Costs{
		SyscallEntry: 150,
		SyscallExit:  150,
		Simple:       100,
		Futex:        500,
		Nanosleep:    500,
		Sigaction:    400,

		PerfOpen:  6000,
		PerfRead:  2600,
		PerfReset: 800,
		PerfClose: 500,

		LimitInit:  4000,
		LimitOpen:  5000,
		LimitFixup: 800,

		Spawn: 8000,
		Clone: 9500,
		Exit:  3000,

		CtxSwitchBase: 900,
		MSRRead:       60,
		MSRWrite:      90,
		VCpuSwitch:    2500,

		GroupOpen: 5500,
		GroupRead: 900,
		MuxRotate: 350,

		SignalDeliver: 400,
		SigReturn:     250,

		PMIHandler:   450,
		OverflowFold: 80,
		SampleRecord: 300,

		SampleStart: 3000,
		SampleStop:  800,

		IOBase: 2200,
	}
}

// OverflowMode selects how the LiMiT patch folds counter overflows into
// the 64-bit virtual counters.
type OverflowMode uint8

const (
	// FoldInKernel: the PMI handler writes the user-memory virtual
	// counter directly (the deployed LiMiT design).
	FoldInKernel OverflowMode = iota
	// SignalUser: the PMI handler posts SIGPMU and the userspace
	// handler performs the fold (the alternative design the paper
	// discusses; strictly slower, kept for the ablation benches).
	SignalUser
)

// ctxSwitchPollutionLines is how many cache lines of kernel data a
// context switch drags through the core's caches.
const ctxSwitchPollutionLines = 32

// Config tunes the kernel.
type Config struct {
	// Quantum is the scheduler time slice in cycles.
	Quantum uint64
	// Costs prices kernel operations.
	Costs Costs
	// MigrateOnWake places woken threads on the least-loaded core
	// instead of their home core, producing cross-core migrations.
	MigrateOnWake bool
	// WorkStealing lets idle cores steal ready threads.
	WorkStealing bool
	// LimitOverflow selects the overflow folding mechanism.
	LimitOverflow OverflowMode
	// Seed drives the kernel's internal tie-breaking RNG.
	Seed uint64

	// MuxQuantum is the event-group rotation period, measured in the
	// owning thread's *scheduled* cycles so preemption storms stretch
	// wall-clock rotation intervals without shrinking per-window counts.
	// Defaults to Quantum/6, so several rotations fit one time slice.
	MuxQuantum uint64

	// VirtSlotCapacity bounds how many pinned virtualized counters
	// (LiMiT and sampling) may be open kernel-wide at once, modeling the
	// finite per-thread counter state the real patch allocates. Zero
	// means unbounded; allocation then never fails but the ledger still
	// accounts, so the leak oracle works either way.
	VirtSlotCapacity int
	// AblateReclaim disables exit-time resource reclamation (slot and
	// table-word returns, fixup-region drops). Testing only: it exists
	// so leak-oracle tests can prove they detect the leaks reclamation
	// prevents.
	AblateReclaim bool

	// Tenants, when > 1, activates the guest-scheduler layer: threads
	// carry a tenant id and each core runs one resident tenant at a
	// time, with vCPU switches between them (tenant.go). <= 1 disables
	// the layer entirely; existing paths pay nothing.
	Tenants int
	// TenantQuantum is the tenant-level time slice in cycles (default
	// 3× Quantum, so several thread slices fit inside one vCPU slice).
	TenantQuantum uint64
	// VCPUs caps how many cores one tenant may be resident on at once
	// (0: unbounded). Caps below the core count force cross-core vCPU
	// migration under load.
	VCPUs int
}

// DefaultConfig returns a configuration resembling a 2011 Linux desktop:
// ~3 ms time slices at 3 GHz would be 9M cycles; we default to 300k
// cycles (100 µs) so that short simulations still exercise preemption
// heavily, as the paper's multi-threaded workloads do.
func DefaultConfig() Config {
	return Config{
		Quantum:       300_000,
		Costs:         DefaultCosts(),
		MigrateOnWake: true,
		WorkStealing:  true,
		LimitOverflow: FoldInKernel,
		Seed:          1,
	}
}

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	StateReady ThreadState = iota
	StateRunning
	StateBlocked  // on a futex
	StateSleeping // nanosleep
	StateDone
)

func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	}
	return "state?"
}

// FixupRegion is a registered read-critical PC range [Start, End). A
// thread interrupted with PC inside the range is rewound to Start.
type FixupRegion struct {
	Start int
	End   int
}

// Contains reports whether pc is inside the region.
func (r FixupRegion) Contains(pc int) bool { return pc >= r.Start && pc < r.End }

// Process groups threads sharing an address space and a program.
type Process struct {
	ID   int
	Mem  *mem.Space
	Prog *isa.Program

	// AllowRdPMC mirrors the CR4.PCE-like flag the LiMiT patch sets.
	AllowRdPMC bool
	// FixupRegions are the process's registered read-critical ranges.
	FixupRegions []FixupRegion
	// regionRefs holds, parallel to FixupRegions, how many live threads
	// hold a registration on each range; a range is removed when its
	// last holder exits.
	regionRefs []int
	// handlers maps signal number to handler entry PC.
	handlers map[int]int
}

// Signal numbers.
const (
	// SIGPMU is delivered on counter overflow in SignalUser mode; the
	// overflowed counter index arrives in R0's shadow (handler arg).
	SIGPMU = 1
	// SIGUSR1 is free for workload use.
	SIGUSR1 = 2
)

type signal struct {
	num int
	arg uint64
}

// CounterKind distinguishes the three counter access paths.
type CounterKind uint8

// Counter kinds.
const (
	KindLimit CounterKind = iota
	KindPerf
	KindSample
)

func (k CounterKind) String() string {
	switch k {
	case KindLimit:
		return "limit"
	case KindPerf:
		return "perf"
	case KindSample:
		return "sample"
	}
	return "kind?"
}

// ThreadCounter is one virtualized per-thread counter. Its index in the
// owning thread's counter slice is the userspace fd; for the pinned
// kinds (LiMiT, sampling) it is also the hardware counter index used
// while the thread runs. A perf counter is a one-event EventGroup that
// the group scheduler places, drains, parks and scales (groups.go).
type ThreadCounter struct {
	Kind        CounterKind
	Event       pmu.Event
	CountUser   bool
	CountKernel bool

	// Saved holds the hardware value while the thread is descheduled
	// (pinned kinds only).
	Saved uint64
	// TableAddr is the user-memory virtual counter address (LiMiT only).
	TableAddr uint64
	// OverflowBit mirrors the PMU programming for this counter.
	OverflowBit int
	// Period and armed sampling state (sampling only).
	Period uint64
	// Closed counters keep their slot (hardware index stability) but
	// are disabled.
	Closed bool
	// Released marks that the counter's ledger accounting (pinned slot,
	// kernel-allocated table word) has been returned — at close or at
	// exit-time reap. Unlike Closed it does not hide the counter from
	// host-side reads: a reaped LiMiT counter's final value stays
	// readable through its virtual-counter word.
	Released bool
	// Estimated marks a counter whose values are degraded estimates
	// rather than exact counts — set when slot exhaustion downgraded an
	// inherited counter to the multiplexed perf path. Results derived
	// from it must be flagged, never presented as exact.
	Estimated bool
	// Inherited marks a counter created by clone-time inheritance; such
	// counters count from the child's birth, so for a user-ring
	// instruction counter the final value must equal the thread's true
	// retired-instruction total (the conservation oracle).
	Inherited bool
	// KernelTable marks a LiMiT counter whose virtual-counter word was
	// allocated by the kernel at clone time (rather than supplied by
	// userspace); its accounting is returned at reap.
	KernelTable bool

	// Overflows counts folds/sample interrupts taken on this counter.
	Overflows uint64

	// HWSlot is the hardware counter currently backing a pinned
	// counter, or -1 while unloaded. LiMiT and sampling counters are
	// pinned (slot == index) because userspace rdpmc encodes the slot.
	// A perf counter's HWSlot stays -1: its group holds the slot.
	HWSlot int

	// group backs a perf counter; nil for the pinned kinds and for
	// closed clone placeholders.
	group *EventGroup
}

// Group returns the one-event group behind a perf counter, or nil for
// other kinds. Its Estimate(0) is the counter's value: exact when the
// group was loaded for its whole life, else a scaled estimate.
func (tc *ThreadCounter) Group() *EventGroup { return tc.group }

// ThreadStats accumulates per-thread scheduler statistics, including
// the kernel's omniscient per-thread ground truth used by tests and
// experiments to validate measured counter values.
type ThreadStats struct {
	CtxSwitches  uint64 // times descheduled
	Preemptions  uint64 // involuntary deschedules
	Migrations   uint64 // times resumed on a different core
	FixupRewinds uint64 // PC rewinds applied by the LiMiT patch
	Signals      uint64 // signals delivered
	Syscalls     uint64

	// UserInstructions and UserCycles are the thread's true user-ring
	// totals (including re-executed fixup instructions, which real
	// hardware also counts).
	UserInstructions uint64
	UserCycles       uint64

	// SchedCycles is total scheduled time (user + kernel rings) accrued
	// at span close; group enabled-time conservation is checked against
	// it. Only accounted while the thread holds an open event group,
	// a perf counter's included.
	SchedCycles uint64
}

// Thread is one simulated software thread.
type Thread struct {
	ID   int
	Name string
	Proc *Process
	Ctx  cpu.Context

	State    ThreadState
	HomeCore int
	// ReadyAt is the earliest cycle the thread may next run (set when
	// it is woken by an event that happened at a known time).
	ReadyAt uint64
	// WakeAt is the nanosleep deadline while sleeping.
	WakeAt uint64

	// ClonedFrom is the parent thread's ID when this thread was created
	// by SysClone or a forced chaos clone; -1 for threads spawned from
	// the host.
	ClonedFrom int

	// Tenant is the guest VM this thread belongs to when the tenant
	// layer is active (Config.Tenants > 1); children inherit it across
	// clone. Out-of-range values are treated as tenant 0.
	Tenant int

	counters  []*ThreadCounter
	sampler   int // index into counters of the active sampler, -1 if none
	sigFrames []cpu.Context
	pending   []signal
	joiners   []*Thread // threads blocked in SysJoin on this thread
	// regions records the fixup-region registrations this thread holds
	// (one entry per SysLimitRegisterFixup or clone-time inheritance);
	// they are dropped at exit, removing each range from the process
	// table when its last holder dies.
	regions [][2]int

	// Event-group multiplexing state (groups.go): spanStartAt marks
	// the current scheduled span; groups is the SysGroupOpen table;
	// groupSlots maps hardware slot -> loaded group (nil free; pinned
	// counters sit at slot == index, so this is the only slot ledger);
	// muxPos is the perf counters' cursor, advanced per switch-in;
	// muxRot is the SysGroupOpen groups' cursor, advanced per rotation
	// quantum, and muxSpent the scheduled cycles since that rotation;
	// gtMark is the per-event ground-truth baseline of the current
	// truth interval.
	spanStartAt uint64
	groups      []*EventGroup
	groupSlots  []*EventGroup
	muxPos      int
	muxRot      int
	muxSpent    uint64
	gtMark      *[pmu.NumEvents][2]uint64

	// FaultMsg records why the thread died, if it faulted.
	FaultMsg string

	Stats ThreadStats
}

// Counters exposes the thread's counter table (read-only use intended;
// experiments inspect Saved/Overflows and perf counters' groups).
func (t *Thread) Counters() []*ThreadCounter { return t.counters }

// Sample is one record captured by the sampling profiler.
type Sample struct {
	TID   int
	PC    int
	Cycle uint64
}

// LogEntry is a record emitted by the SysLogValue syscall.
type LogEntry struct {
	TID   int
	Tag   uint64
	Value uint64
	Cycle uint64
}

// Stats accumulates kernel-wide statistics.
type Stats struct {
	CtxSwitches   uint64
	Migrations    uint64
	Preemptions   uint64
	PMIs          uint64
	OverflowFolds uint64
	Steals        uint64
	SignalsSent   uint64
	Syscalls      uint64
	Clones        uint64 // threads created with counter inheritance
	Exits         uint64 // threads torn down through the exit path
	Kills         uint64 // exits forced by chaos injection

	VCpuSwitches      uint64 // tenant residency changes on a core
	VCpuMigrations    uint64 // cross-core vCPU moves + cap-driven thread moves
	TenantPreemptions uint64 // vCPU preemptions (quantum expiry or chaos)

	MuxRotations uint64 // event-group rotation windows closed

	// RewindsAvoided counts fixup checks that ran with regions
	// registered but found the PC outside every read-critical range.
	RewindsAvoided uint64
	// OpenPolicy pressure, seen from the kernel side: transient
	// SysLimitOpen denials (RetAgain), perf opens flagged as degraded
	// fallbacks, and clones whose inheritance degraded to estimates.
	LimitOpenAgain uint64
	DegradedOpens  uint64
	DegradedClones uint64
}

// Kernel is the simulated OS instance managing a fixed set of cores.
type Kernel struct {
	cfg   Config
	cores []*cpu.Core

	procs   []*Process
	threads []*Thread
	live    int // threads not yet StateDone, so AllDone is O(1)

	cur        []*Thread   // per-core current thread
	runq       [][]*Thread // per-core ready queues
	quantumEnd []uint64    // per-core current slice deadline
	lastProc   []int       // per-core last process ID (TLB flush decisions)

	sleepers []*Thread // unsorted; scanned (small populations)
	minWake  uint64    // earliest sleeper deadline; ^0 when none sleep
	futexes  map[futexKey][]*Thread

	samples []Sample
	logs    []LogEntry
	faults  []string

	kernDataBase uint64 // fake kernel addresses for cache pollution
	rng          uint64

	// slots accounts pinned virtualized-counter slots against
	// cfg.VirtSlotCapacity; tableWords accounts kernel-allocated
	// virtual-counter words (unbounded, audit only). regionsLive and
	// regionsPeak track fixup-region registrations the same way. All
	// three feed Resources(), the leak oracle's ground truth.
	slots       *pmu.Ledger
	tableWords  *pmu.Ledger
	regionsLive int
	regionsPeak int

	// Tracer, when non-nil, records scheduling/syscall/interrupt
	// events. Attach with SetTracer before running.
	tracer *trace.Buffer

	// chaos and probes are the fault-injection and invariant-checking
	// hook sets (hooks.go). Attach with SetChaos/SetProbes.
	chaos  *Chaos
	probes *Probes

	// metrics, when non-nil, is the kernel's self-measurement surface
	// (metrics.go). pmiRaiseAt holds per-core, per-slot raise marks for
	// the PMI latency histogram; both are nil while detached.
	metrics    *Metrics
	pmiRaiseAt [][]uint64

	// ts is the guest-scheduler (tenant) layer, nil unless
	// Config.Tenants > 1 (tenant.go).
	ts *tenantSched

	// frames collects the per-rotation event-frame snapshots (groups.go);
	// frameSeq is the kernel-wide emission counter stamped on each.
	frames   []Frame
	frameSeq uint64
	// plan and cands are the group-placement scratch every switch-in,
	// rotation and group start rebuilds in place: the plan, and the
	// groups offered to it (groups.go).
	plan  groupPlan
	cands []*EventGroup

	Stats Stats
}

type futexKey struct {
	proc int
	addr uint64
}

// New creates a kernel managing the given cores.
func New(cfg Config, cores []*cpu.Core) *Kernel {
	if len(cores) == 0 {
		panic("kernel: need at least one core")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultConfig().Quantum
	}
	if cfg.MuxQuantum == 0 {
		cfg.MuxQuantum = cfg.Quantum / 6
	}
	k := &Kernel{
		cfg:          cfg,
		cores:        cores,
		cur:          make([]*Thread, len(cores)),
		runq:         make([][]*Thread, len(cores)),
		quantumEnd:   make([]uint64, len(cores)),
		lastProc:     make([]int, len(cores)),
		futexes:      make(map[futexKey][]*Thread),
		minWake:      ^uint64(0),
		kernDataBase: 0xffff_8000_0000_0000,
		rng:          cfg.Seed ^ 0x8c0ffee0,
		slots:        pmu.NewLedger(cfg.VirtSlotCapacity),
		tableWords:   pmu.NewLedger(0),
	}
	if cfg.Tenants > 1 {
		k.ts = newTenantSched(k.cfg, len(cores))
	}
	return k
}

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// NewProcess creates a process around a program. space may be nil for
// a fresh address space; passing one allows programs to embed
// addresses that were allocated before assembly (counter tables,
// result buffers, locks).
func (k *Kernel) NewProcess(prog *isa.Program, space *mem.Space) *Process {
	if space == nil {
		space = mem.NewSpace()
	}
	p := &Process{
		ID:       len(k.procs) + 1,
		Mem:      space,
		Prog:     prog,
		handlers: make(map[int]int),
	}
	k.procs = append(k.procs, p)
	return p
}

// Spawn creates a thread in proc starting at entry (an instruction
// index, typically prog.MustEntry(label)) and enqueues it on the least-
// loaded core. Initial register values may be supplied via regs (pairs
// applied in order).
func (k *Kernel) Spawn(proc *Process, name string, entry int, seed uint64) *Thread {
	t := &Thread{
		ID:         len(k.threads) + 1,
		Name:       name,
		Proc:       proc,
		State:      StateReady,
		sampler:    -1,
		ClonedFrom: -1,
	}
	t.Ctx.Prog = proc.Prog
	t.Ctx.Mem = proc.Mem
	t.Ctx.PC = entry
	t.Ctx.AllowRdPMC = proc.AllowRdPMC
	t.Ctx.SeedRNG(seed + uint64(t.ID)*0x9e3779b97f4a7c15)
	core := k.leastLoadedCore()
	t.HomeCore = core
	k.threads = append(k.threads, t)
	k.live++
	k.runq[core] = append(k.runq[core], t)
	k.tr(core, t, trace.Spawn, uint64(entry))
	return t
}

// SetReg sets an initial register value on a not-yet-run thread.
func (t *Thread) SetReg(r isa.Reg, v uint64) { t.Ctx.Regs[r] = v }

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// Samples returns the sampling profiler's capture buffer.
func (k *Kernel) Samples() []Sample { return k.samples }

// Logs returns entries recorded via SysLogValue.
func (k *Kernel) Logs() []LogEntry { return k.logs }

// Faults returns descriptions of threads killed by faults.
func (k *Kernel) Faults() []string { return k.faults }

// FaultedThreads returns every thread that died from a fault.
func (k *Kernel) FaultedThreads() []*Thread {
	var out []*Thread
	for _, t := range k.threads {
		if t.FaultMsg != "" {
			out = append(out, t)
		}
	}
	return out
}

// AllDone reports whether every spawned thread has terminated.
func (k *Kernel) AllDone() bool { return k.live == 0 }

// SetTracer attaches an event trace buffer (nil detaches).
func (k *Kernel) SetTracer(b *trace.Buffer) { k.tracer = b }

// Tracer returns the attached trace buffer, if any.
func (k *Kernel) Tracer() *trace.Buffer { return k.tracer }

// tr records a trace event when tracing is attached.
func (k *Kernel) tr(coreID int, t *Thread, kind trace.Kind, arg uint64) {
	if k.tracer == nil {
		return
	}
	tid := 0
	if t != nil {
		tid = t.ID
	}
	k.tracer.Append(trace.Event{
		Cycle: k.cores[coreID].Now, Core: coreID, TID: tid, Kind: kind, Arg: arg,
	})
}

func (k *Kernel) rand() uint64 {
	x := k.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	k.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (k *Kernel) leastLoadedCore() int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for i := range k.cores {
		load := len(k.runq[i])
		if k.cur[i] != nil {
			load++
		}
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// fault kills a thread with a uniformly shaped diagnostic: every fault
// message names the thread, the core it died on, and the PC at the
// fault, regardless of which kernel path raised it.
func (k *Kernel) fault(coreID int, t *Thread, pc int, msg string) {
	t.FaultMsg = msg
	if t.State != StateDone {
		k.live--
	}
	t.State = StateDone
	k.faults = append(k.faults, fmt.Sprintf(
		"thread %d (%s) core%d pc=%d: %s", t.ID, t.Name, coreID, pc, msg))
}
