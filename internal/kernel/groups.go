package kernel

import (
	"limitsim/internal/cpu"
	"limitsim/internal/pmu"
	"limitsim/internal/trace"
)

// Event-group multiplexing: Linux-perf-shaped groups of events — often
// more events than the PMU has counters — placed atomically on the
// hardware slots the pinned counters leave free. A group loads all of
// its events onto hardware or none of them (atomic scheduling), accrues
// enabled time while open and running time while loaded, and reads back
// Linux's time_enabled/time_running scaled estimate, computed with
// 128-bit integer arithmetic (pmu.Scale), never float.
//
// Groups come from two syscalls, and the one that opened a group fixes
// when it rotates:
//
//   - SysGroupOpen groups live in the thread's group table, rotate
//     round-robin on the rotation quantum (muxRot), and emit frames.
//   - Each SysPerfOpen counter is a one-event group hanging off its
//     counter-table entry. Perf groups are placed first at switch-in,
//     rotate one position per switch-in (muxPos), stay put on quantum
//     rotations, and emit no frames.
//
// This is the estimated world the paper's exact LiMiT reads are argued
// against; the T5 and M2 experiments quantify the gap. Two accounting
// properties are invariant-checked for both kinds
// (invariant.CheckGroups):
//
//   - Conservation: a group's enabled time equals the thread's
//     scheduled cycles since the group opened, exactly.
//   - Exactness: a group whose running time equals its enabled time was
//     loaded for its entire life, and its raw counts must equal the
//     kernel's omniscient ground truth per event, exactly.
//
// The second property holds because every transfer between hardware
// counters and group accumulators happens at one instant on the core
// clock: spanClose drains loaded counters, attributes the span's
// ground-truth deltas, and re-marks the truth baseline with no kernel
// work charged in between. MSR costs are charged strictly outside the
// enabled-and-marked window (before counters enable on load, after the
// drain on unload), so a never-unloaded group misses nothing.

// maxGroupsPerThread bounds a thread's open group table.
const maxGroupsPerThread = 16

// GroupEvent is one event slot of a group: an event plus its ring
// filter (the descriptor-word flags of SysGroupOpen).
type GroupEvent struct {
	Event       pmu.Event
	CountUser   bool
	CountKernel bool
}

// EventGroup is one atomically scheduled set of events. Raw holds the
// drained hardware counts (only while loaded does hardware count);
// True holds the omniscient per-event totals over the same enabled
// intervals — the oracle a scaled estimate is judged against.
type EventGroup struct {
	Events []GroupEvent
	Raw    []uint64
	True   []uint64

	// EnabledCycles is scheduled time since open; RunningCycles is the
	// subset spent loaded on hardware. Their ratio is the scale factor.
	EnabledCycles uint64
	RunningCycles uint64
	// OpenSchedMark is the thread's SchedCycles at open and
	// CloseSchedMark at close; conservation demands
	// Enabled == (CloseSchedMark | SchedCycles) − OpenSchedMark.
	OpenSchedMark  uint64
	CloseSchedMark uint64

	Loaded bool
	Closed bool
	// slots are the hardware counters backing the group while loaded,
	// allocated at open to the group's width.
	slots []int
	// perf marks a perf counter's one-event group.
	perf bool
}

// perfGroup builds the one-event group behind perf counter tc.
func perfGroup(tc *ThreadCounter) *EventGroup {
	return &EventGroup{
		Events: []GroupEvent{{Event: tc.Event, CountUser: tc.CountUser, CountKernel: tc.CountKernel}},
		Raw:    make([]uint64, 1),
		True:   make([]uint64, 1),
		slots:  make([]int, 0, 1),
		perf:   true,
	}
}

// Estimate returns event i's cumulative scaled estimate:
// raw × enabled/running in 128-bit integer arithmetic. A group loaded
// for its whole life returns the raw count unscaled (exact).
func (g *EventGroup) Estimate(i int) uint64 {
	if g.RunningCycles == 0 {
		return 0
	}
	if g.RunningCycles >= g.EnabledCycles {
		return g.Raw[i]
	}
	return pmu.Scale(g.Raw[i], g.EnabledCycles, g.RunningCycles)
}

// Multiplexed reports whether the group spent enabled time unloaded.
func (g *EventGroup) Multiplexed() bool { return g.EnabledCycles > g.RunningCycles }

// Groups exposes the thread's event groups (read-only use intended).
func (t *Thread) Groups() []*EventGroup { return t.groups }

// FrameSample is one event's cumulative state within a frame.
type FrameSample struct {
	Group    int // owning group id (index into Thread.Groups)
	Event    GroupEvent
	Estimate uint64
	Enabled  uint64
	Running  uint64
}

// Frame is one snapshot of a thread's event groups, emitted at every
// rotation, at each group close, and once (Final) when the thread is
// reaped or the run ends (FlushFrames) — so the stream always ends
// with each thread's complete cumulative state and windowed consumers
// never lose a partial tail. Seq is the kernel-wide emission order;
// frames are deterministic by construction because the simulation is.
// Tenant is the owning guest VM when the tenant layer is active
// (Config.Tenants > 1), else 0.
type Frame struct {
	Seq     uint64
	Cycle   uint64
	Core    int
	TID     int
	Tenant  int
	Final   bool
	Samples []FrameSample
}

// Frames returns every event frame emitted during the run.
func (k *Kernel) Frames() []Frame { return k.frames }

// openGroups appends the thread's open SysGroupOpen groups to dst.
func (t *Thread) openGroups(dst []*EventGroup) []*EventGroup {
	for _, g := range t.groups {
		if !g.Closed {
			dst = append(dst, g)
		}
	}
	return dst
}

// perfGroups appends the groups of the thread's open perf counters to
// dst, in fd order.
func (t *Thread) perfGroups(dst []*EventGroup) []*EventGroup {
	for _, tc := range t.counters {
		if g := tc.group; g != nil && !g.Closed {
			dst = append(dst, g)
		}
	}
	return dst
}

// holdsGroups reports whether the thread holds an open group in either
// table. It is derived from the tables each time, never cached.
func (t *Thread) holdsGroups() bool {
	for _, g := range t.groups {
		if !g.Closed {
			return true
		}
	}
	for _, tc := range t.counters {
		if g := tc.group; g != nil && !g.Closed {
			return true
		}
	}
	return false
}

// ensureGroupSlots lazily sizes the slot→group ledger to the PMU.
func ensureGroupSlots(core *cpu.Core, t *Thread) {
	if t.groupSlots == nil {
		t.groupSlots = make([]*EventGroup, core.PMU.NumCounters())
	}
}

// freeSlots appends to dst, in slot order, the hardware slots held by
// neither a loaded pinned counter nor a loaded group. Quantum rotation
// passes rotating to count the SysGroupOpen groups' slots as free: it
// plans the state after it parks them, while perf groups stay put.
func (t *Thread) freeSlots(dst []int, n int, rotating bool) []int {
	for slot := 0; slot < n; slot++ {
		if t.pinnedIn(slot) != nil {
			continue
		}
		if g := t.groupSlots[slot]; g != nil && (g.perf || !rotating) {
			continue
		}
		dst = append(dst, slot)
	}
	return dst
}

// groupMark re-snapshots the per-event ground-truth baseline for the
// thread's next truth interval. Must be called at the same core-clock
// instant the group hardware is (re)enabled or drained.
func (k *Kernel) groupMark(core *cpu.Core, t *Thread) {
	if t.gtMark == nil {
		t.gtMark = new([pmu.NumEvents][2]uint64)
	}
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		t.gtMark[ev][pmu.RingUser] = core.PMU.GroundTruth(ev, pmu.RingUser)
		t.gtMark[ev][pmu.RingKernel] = core.PMU.GroundTruth(ev, pmu.RingKernel)
	}
}

// spanClose closes the thread's current scheduled span. When the
// thread holds an open group, scheduled cycles and group enabled/
// running times accrue, loaded group counters are drained into Raw,
// the span's ground-truth deltas are attributed to True, and the truth
// baseline is re-marked. Drain, attribution and re-mark happen with no
// kernel work charged between them; that single-instant discipline is
// what makes a never-unloaded group exact (Raw == True per event).
// muxSpent is the SysGroupOpen table's rotation clock, so it runs
// whenever that table is non-empty.
func (k *Kernel) spanClose(core *cpu.Core, t *Thread) {
	span := core.Now - t.spanStartAt
	t.spanStartAt = core.Now
	if len(t.groups) != 0 {
		t.muxSpent += span
	}
	if !t.holdsGroups() {
		return
	}
	t.Stats.SchedCycles += span
	for _, g := range t.groups {
		k.drainGroup(core, t, g, span)
	}
	for _, tc := range t.counters {
		if tc.group != nil {
			k.drainGroup(core, t, tc.group, span)
		}
	}
	k.groupMark(core, t)
}

// drainGroup closes an open group's share of a span (see spanClose).
func (k *Kernel) drainGroup(core *cpu.Core, t *Thread, g *EventGroup, span uint64) {
	if g.Closed {
		return
	}
	g.EnabledCycles += span
	if g.Loaded {
		g.RunningCycles += span
	}
	for i := range g.Events {
		ge := &g.Events[i]
		var d uint64
		if ge.CountUser {
			d += core.PMU.GroundTruth(ge.Event, pmu.RingUser) - t.gtMark[ge.Event][pmu.RingUser]
		}
		if ge.CountKernel {
			d += core.PMU.GroundTruth(ge.Event, pmu.RingKernel) - t.gtMark[ge.Event][pmu.RingKernel]
		}
		g.True[i] += d
		if g.Loaded {
			slot := g.slots[i]
			g.Raw[i] += core.PMU.Read(slot)
			core.PMU.Write(slot, 0)
		}
	}
}

// groupPlan is a pure placement decision: which groups load into which
// free slots. Each planned group takes the next len(Events) slots of
// free, in plan order, so the n slots in use are free[:n]. The kernel
// owns one plan and rebuilds it in place for every placement (newPlan),
// so switch-ins and rotations allocate nothing once it has grown;
// applyGroupPlan copies the slots into each group, and a plan never
// outlives the call that built it.
type groupPlan struct {
	gs   []*EventGroup
	free []int
	n    int
}

// newPlan empties the kernel's plan and lists t's free slots in it
// (see freeSlots).
func (k *Kernel) newPlan(core *cpu.Core, t *Thread, rotating bool) *groupPlan {
	ensureGroupSlots(core, t)
	p := &k.plan
	p.gs, p.n = p.gs[:0], 0
	p.free = t.freeSlots(p.free[:0], core.PMU.NumCounters(), rotating)
	return p
}

// GroupFits is the placement rule: a group of n events loads only
// when n slots are free, all of its slots or none. A group wider than
// the slots the pinned counters leave free never loads, so it never
// counts.
func GroupFits(n, free int) bool { return n <= free }

// place adds to the plan each group of open that fits whole into the
// free slots the plan has not used yet, walking open cyclically from
// rot so successive rotations advance the window.
func (p *groupPlan) place(open []*EventGroup, rot int) {
	for j := range open {
		g := open[(rot+j)%len(open)]
		if !GroupFits(len(g.Events), len(p.free)-p.n) {
			continue
		}
		p.gs = append(p.gs, g)
		p.n += len(g.Events)
	}
}

// applyGroupPlan programs the planned slots: event selection, ring
// filter, enable, value zeroed. Costless at the simulation level — the
// caller charges the MSR traffic, before this instant except where
// SysPerfOpen's order says otherwise.
func (k *Kernel) applyGroupPlan(core *cpu.Core, t *Thread, p *groupPlan) {
	free := p.free
	for _, g := range p.gs {
		g.slots = append(g.slots[:0], free[:len(g.Events)]...)
		free = free[len(g.Events):]
		g.Loaded = true
		for i, slot := range g.slots {
			ge := g.Events[i]
			core.PMU.Configure(slot, pmu.CounterConfig{
				Event:       ge.Event,
				CountUser:   ge.CountUser,
				CountKernel: ge.CountKernel,
				Enabled:     true,
				OverflowBit: -1, // groups never interrupt; spans stay far below the counter width
			})
			core.PMU.Write(slot, 0)
			t.groupSlots[slot] = g
		}
	}
}

// groupsLoad places the open groups on the slots the pinned counters
// left free — perf groups first, from muxPos, which advances one
// position per switch-in; then SysGroupOpen groups from muxRot — and
// charges their MSR traffic before programming them. Used on
// switch-in: the caller re-marks truth and opens the span right after,
// so the enable instant and the truth mark coincide.
func (k *Kernel) groupsLoad(core *cpu.Core, t *Thread) {
	p := k.newPlan(core, t, false)
	if k.cands = t.perfGroups(k.cands[:0]); len(k.cands) != 0 {
		p.place(k.cands, t.muxPos)
		t.muxPos++
	}
	k.cands = t.openGroups(k.cands[:0])
	p.place(k.cands, t.muxRot)
	if p.n == 0 {
		return
	}
	if !core.PMU.Features().HardwareVirtualization {
		core.KernelWork(k.cfg.Costs.MSRWrite * 2 * uint64(p.n)) // evtsel + value per slot
	}
	k.applyGroupPlan(core, t, p)
}

// groupPark unloads one group, disabling and freeing its hardware
// slots. The spanClose drain has already banked its counts; leftover
// cycles counted between drain and disable are discarded by the
// Write(0) at next load, never entering Raw. Returns slots parked; the
// caller prices the MSR traffic.
func (k *Kernel) groupPark(core *cpu.Core, t *Thread, g *EventGroup) int {
	n := 0
	for _, slot := range g.slots {
		core.PMU.Configure(slot, pmu.CounterConfig{Enabled: false, OverflowBit: -1})
		t.groupSlots[slot] = nil
		n++
	}
	g.slots = g.slots[:0]
	g.Loaded = false
	return n
}

// startGroup starts g's accounting at this instant, at which the
// caller has just closed the span, and loads g onto the first free
// slots of p, a plan from newPlan, when it fits whole.
func (k *Kernel) startGroup(core *cpu.Core, t *Thread, g *EventGroup, p *groupPlan) {
	g.OpenSchedMark = t.Stats.SchedCycles
	k.groupMark(core, t)
	if n := len(g.Events); GroupFits(n, len(p.free)) {
		p.gs, p.n = append(p.gs, g), n
		k.applyGroupPlan(core, t, p)
	}
}

// closeGroup stops g accruing at this instant, at which the caller has
// just closed the span, and frees its slots.
func (k *Kernel) closeGroup(core *cpu.Core, t *Thread, g *EventGroup) {
	k.groupPark(core, t, g)
	g.Closed = true
	g.CloseSchedMark = t.Stats.SchedCycles
}

// loadedGroupSlots counts hardware slots currently backing SysGroupOpen
// groups.
func (t *Thread) loadedGroupSlots() int {
	n := 0
	for _, g := range t.groups {
		if g.Loaded {
			n += len(g.slots)
		}
	}
	return n
}

// muxTick fires group rotation once the thread's scheduled time since
// the last rotation reaches the rotation quantum, and returns the
// first clock at which it would fire next: RunCore calls it before
// each interpreter segment of a group-holding thread and ends the
// segment there. muxSpent is below the quantum on return (zero after
// a rotation), so the deadline is the current clock or later; one
// that wraps, for a quantum near 2^64, only ends segments early.
func (k *Kernel) muxTick(coreID int, t *Thread) uint64 {
	if t.muxSpent+(k.cores[coreID].Now-t.spanStartAt) >= k.cfg.MuxQuantum {
		k.muxRotate(coreID, t)
	}
	return t.spanStartAt + k.cfg.MuxQuantum - t.muxSpent
}

// muxRotate advances the SysGroupOpen round-robin cursor and
// reprograms those groups' slots: price the handler and all MSR
// traffic first (inside the old span, where hardware and truth both
// count it), then atomically close the span — draining loaded groups
// and re-marking truth — park the SysGroupOpen groups, load the next
// window, and emit one event frame. Perf groups stay loaded throughout.
func (k *Kernel) muxRotate(coreID int, t *Thread) {
	core := k.cores[coreID]
	k.cands = t.openGroups(k.cands[:0])
	open := k.cands
	if len(open) == 0 {
		// Every group closed: nothing rotates, but close the span so the
		// quantum check restarts instead of firing again at once.
		k.spanClose(core, t)
		t.muxSpent = 0
		return
	}
	nextRot := (t.muxRot + 1) % len(open)
	plan := k.newPlan(core, t, true)
	plan.place(open, nextRot)

	// Price everything before the atomic instant: rotation handler,
	// save-side MSR reads/writes for loaded slots, load-side writes for
	// the planned ones.
	core.KernelWork(k.cfg.Costs.MuxRotate)
	if !core.PMU.Features().HardwareVirtualization {
		if loaded := t.loadedGroupSlots(); loaded > 0 {
			core.KernelWork((k.cfg.Costs.MSRRead + k.cfg.Costs.MSRWrite) * uint64(loaded))
		}
		if plan.n > 0 {
			core.KernelWork(k.cfg.Costs.MSRWrite * 2 * uint64(plan.n))
		}
	}

	k.spanClose(core, t)
	for _, g := range open {
		k.groupPark(core, t, g)
	}
	t.muxRot = nextRot
	k.applyGroupPlan(core, t, plan)
	t.muxSpent = 0

	k.Stats.MuxRotations++
	k.emitFrame(coreID, t, false)
	k.tr(coreID, t, trace.MuxRotate, uint64(t.muxRot))
}

// emitFrame appends one frame snapshotting every group of t. Callers
// guarantee freshness: a spanClose ran at the current core clock.
func (k *Kernel) emitFrame(coreID int, t *Thread, final bool) {
	if len(t.groups) == 0 {
		return
	}
	f := Frame{
		Seq:    k.frameSeq,
		Cycle:  k.cores[coreID].Now,
		Core:   coreID,
		TID:    t.ID,
		Tenant: t.Tenant,
		Final:  final,
	}
	k.frameSeq++
	n := 0
	for _, g := range t.groups {
		n += len(g.Events)
	}
	f.Samples = make([]FrameSample, 0, n)
	for gi, g := range t.groups {
		for i := range g.Events {
			f.Samples = append(f.Samples, FrameSample{
				Group:    gi,
				Event:    g.Events[i],
				Estimate: g.Estimate(i),
				Enabled:  g.EnabledCycles,
				Running:  g.RunningCycles,
			})
		}
	}
	k.frames = append(k.frames, f)
}

// groupOpen implements SysGroupOpen: R0 is the address of a descriptor
// table (one word per event: event id in the low 32 bits, FlagUser/
// FlagKernel in the high 32), R1 the event count. Validation is
// all-or-nothing — a bad descriptor opens nothing. The group starts
// counting at the instant it is appended; when it fits the free slots
// it loads immediately, with the MSR traffic priced before the span
// closes so enabled and running time start together (a group that is
// never subsequently unloaded stays exact).
func (k *Kernel) groupOpen(coreID int, t *Thread, tableAddr, count uint64) uint64 {
	core := k.cores[coreID]
	if count == 0 || count > uint64(core.PMU.NumCounters()) || len(t.groups) >= maxGroupsPerThread {
		return RetErr
	}
	evs := make([]GroupEvent, count)
	for i := range evs {
		word := t.Proc.Mem.Read64(tableAddr + uint64(i)*8)
		ev := word & 0xffffffff
		flags := word >> 32
		if ev >= uint64(pmu.NumEvents) || flags&(FlagUser|FlagKernel) == 0 {
			return RetErr
		}
		evs[i] = GroupEvent{
			Event:       pmu.Event(ev),
			CountUser:   flags&FlagUser != 0,
			CountKernel: flags&FlagKernel != 0,
		}
	}

	// Placement for the new group only: it may take any slot free of
	// counters and of already-loaded groups.
	p := k.newPlan(core, t, false)
	if GroupFits(len(evs), len(p.free)) && !core.PMU.Features().HardwareVirtualization {
		core.KernelWork(k.cfg.Costs.MSRWrite * 2 * uint64(len(evs)))
	}

	k.spanClose(core, t)
	g := &EventGroup{
		Events: evs,
		Raw:    make([]uint64, count),
		True:   make([]uint64, count),
		slots:  make([]int, 0, count),
	}
	t.groups = append(t.groups, g)
	k.startGroup(core, t, g, p)
	return uint64(len(t.groups) - 1)
}

// groupAt validates a group id.
func groupAt(t *Thread, gid uint64) *EventGroup {
	if gid >= uint64(len(t.groups)) || t.groups[gid].Closed {
		return nil
	}
	return t.groups[gid]
}

// groupRead implements SysGroupRead: the scaled estimate of event R1
// in group R0, fresh as of this instant.
func (k *Kernel) groupRead(coreID int, t *Thread, gid, idx uint64) uint64 {
	g := groupAt(t, gid)
	if g == nil || idx >= uint64(len(g.Events)) {
		return RetErr
	}
	k.spanClose(k.cores[coreID], t)
	return g.Estimate(int(idx))
}

// groupClose implements SysGroupClose: the group stops accruing, its
// hardware slots free up for the remaining groups, and its values
// freeze for host-side reads.
func (k *Kernel) groupClose(coreID int, t *Thread, gid uint64) uint64 {
	g := groupAt(t, gid)
	if g == nil {
		return RetErr
	}
	core := k.cores[coreID]
	if g.Loaded && !core.PMU.Features().HardwareVirtualization {
		core.KernelWork((k.cfg.Costs.MSRRead + k.cfg.Costs.MSRWrite) * uint64(len(g.slots)))
	}
	k.spanClose(core, t)
	k.closeGroup(core, t, g)
	// Snapshot the frozen group (and its siblings) at the close
	// instant: without this a group closed mid-run would only be seen
	// by windowed consumers at the next rotation, silently shifting its
	// final counts into a later window.
	k.emitFrame(coreID, t, false)
	return 0
}

// FlushFrames emits one final frame for every live group-holding
// thread, so a run truncated by a cycle or step limit still ends its
// frame stream with each thread's complete cumulative state (reap does
// the same for threads that exit; all-done runs make this a no-op).
// Running threads close their current span first, at their own core
// clock; descheduled threads closed theirs on deschedule and are
// stamped with the most advanced core clock, which keeps per-thread
// frame cycles non-decreasing. The machine calls this exactly once at
// the end of Run.
func (k *Kernel) FlushFrames() {
	latest := 0
	for coreID, t := range k.cur {
		if t != nil && len(t.groups) != 0 {
			k.spanClose(k.cores[coreID], t)
		}
		if k.cores[coreID].Now > k.cores[latest].Now {
			latest = coreID
		}
	}
	for _, t := range k.threads {
		if t.State == StateDone || len(t.groups) == 0 {
			continue
		}
		coreID := latest
		for cid, cur := range k.cur {
			if cur == t {
				coreID = cid
				break
			}
		}
		k.emitFrame(coreID, t, true)
	}
}
