package kernel

import (
	"limitsim/internal/isa"
	"limitsim/internal/trace"
)

// Thread lifecycle: clone with counter inheritance, and exit with
// deterministic resource reclamation.
//
// LiMiT's long-lived workloads (the MySQL longitudinal study most of
// all) churn threads constantly, so the kernel patch must keep the
// per-thread virtualized counters exact across creation and teardown,
// not just across context switches. Two properties anchor everything
// here and are enforced by the invariant oracles:
//
//   - Conservation: a cloned child's counters mirror the parent's
//     configuration but start from zero, so parent and child deltas
//     fold into process totals without double counting, and a counter
//     inherited at birth ends exactly equal to the child's true total.
//   - Leak-freedom: every resource a thread acquires — pinned counter
//     slots, kernel-allocated virtual-counter words, fixup-region
//     registrations — is returned when the thread exits, by any path:
//     halt, exit syscall, fault, or chaos kill.

// Exit reasons, recorded as the trace.Exit argument.
const (
	exitHalt      = 0 // ran off the end of its code (Halt)
	exitVoluntary = 1 // SysExit
	exitKilled    = 2 // chaos-injected asynchronous kill
)

// clone implements SysClone: create a thread at entry whose counters
// inherit the parent's open set. Event groups are NOT inherited —
// matching perf's semantics, where a group fd measures one task and a
// child starts with none. Returns the child TID or RetErr.
func (k *Kernel) clone(coreID int, t *Thread, entry int, tlsArg, seed, tableBase uint64) uint64 {
	if entry < 0 || entry >= t.Proc.Prog.Len() {
		return RetErr
	}
	core := k.cores[coreID]
	nt := k.Spawn(t.Proc, t.Name+"*", entry, seed)
	nt.ClonedFrom = t.ID
	nt.Tenant = t.Tenant // a guest VM's threads stay in the guest
	nt.Ctx.Regs[isa.R14] = tlsArg
	nt.ReadyAt = core.Now

	// The child executes the same read sequences its parent does, so it
	// takes its own reference on each fixup region the parent holds;
	// the range stays registered until the last holder exits — a dead
	// manager must never strip its live workers' rewind protection.
	for _, r := range t.regions {
		k.addRegionRef(nt, r[0], r[1])
	}

	degraded := k.inheritCounters(t, nt, tableBase)
	if degraded {
		nt.Ctx.Regs[isa.R0] = 1
		k.Stats.DegradedClones++
	}
	k.Stats.Clones++
	k.tr(coreID, nt, trace.Clone, uint64(t.ID))
	if k.probes != nil && k.probes.Clone != nil {
		k.probes.Clone(coreID, t, nt, degraded)
	}
	return uint64(nt.ID)
}

// inheritCounters mirrors the parent's open counters into the child:
// same kinds, events, and rings, with every value starting from zero.
// LiMiT counters need a fresh virtual-counter word — tableBase != 0
// names a caller-provided table (word i backs counter i), tableBase ==
// 0 has the kernel allocate words. Pinned kinds (LiMiT, sampling)
// reserve slots from the kernel-wide ledger in one all-or-nothing
// call; when the reservation is denied the child degrades: every
// inherited counter becomes a perf counter — a one-event group the
// scheduler multiplexes like any other — whose readings are flagged
// via Estimated: degraded, never silently wrong. Perf counters, as
// inherited or degraded, get their group here; it starts at the
// child's zero scheduled cycles. Reports whether the child degraded.
func (k *Kernel) inheritCounters(t, nt *Thread, tableBase uint64) bool {
	pinnedNeed := 0
	for _, pc := range t.counters {
		if !pc.Closed && pc.Kind != KindPerf {
			pinnedNeed++
		}
	}
	degraded := pinnedNeed > 0 && !k.slots.TryAcquire(pinnedNeed)
	for i, pc := range t.counters {
		if pc.Closed {
			// Placeholder: keeps child counter indices aligned with the
			// parent's, so generated code addressing counters by index
			// works identically in both.
			nt.counters = append(nt.counters, &ThreadCounter{
				Kind: pc.Kind, Closed: true, Released: true,
				HWSlot: -1, OverflowBit: -1,
			})
			continue
		}
		tc := &ThreadCounter{
			Kind:        pc.Kind,
			Event:       pc.Event,
			CountUser:   pc.CountUser,
			CountKernel: pc.CountKernel,
			OverflowBit: pc.OverflowBit,
			Period:      pc.Period,
			HWSlot:      -1,
			Inherited:   true,
			Estimated:   pc.Estimated,
		}
		switch {
		case degraded && pc.Kind == KindSample:
			// A sampler needs its pinned slot; the degraded child loses
			// it rather than sampling from a wrong slot.
			tc.Closed, tc.Released = true, true
		case degraded || pc.Kind == KindPerf:
			tc.Kind = KindPerf
			tc.OverflowBit = -1
			tc.TableAddr = 0
			if degraded {
				tc.Estimated = true
			}
			tc.group = perfGroup(tc)
		case pc.Kind == KindLimit:
			if tableBase != 0 {
				tc.TableAddr = tableBase + uint64(i)*8
			} else {
				tc.TableAddr = t.Proc.Mem.AllocWords(1)
				tc.KernelTable = true
				k.tableWords.TryAcquire(1)
			}
			t.Proc.Mem.Write64(tc.TableAddr, 0)
		case pc.Kind == KindSample:
			tc.Saved = (uint64(1) << uint(pc.OverflowBit)) - pc.Period
			nt.sampler = len(nt.counters)
		}
		nt.counters = append(nt.counters, tc)
	}
	return degraded
}

// exitThread terminates t on coreID through the full teardown path:
// the thread is descheduled (saving and disabling its hardware
// counters), marked done, reaped (resources returned, values left
// intact), and its joiners woken. how is the trace.Exit argument.
func (k *Kernel) exitThread(coreID int, t *Thread, how uint64) {
	start := k.cores[coreID].Now
	k.deschedule(coreID, t)
	if t.State != StateDone {
		k.live--
	}
	t.State = StateDone
	k.reapThread(coreID, t)
	k.Stats.Exits++
	k.tr(coreID, t, trace.Exit, how)
	if k.metrics != nil {
		k.metrics.ExitCycles.Observe(k.cores[coreID].Now - start)
	}
	k.wakeJoiners(t, k.cores[coreID].Now)
}

// faultThread is the involuntary analogue of exitThread: the thread
// dies with a diagnostic, and its resources are reclaimed exactly as
// on a clean exit — a crashing thread must not leak counter slots.
func (k *Kernel) faultThread(coreID int, t *Thread, msg string) {
	pc := t.Ctx.PC
	k.deschedule(coreID, t)
	k.fault(coreID, t, pc, msg)
	k.reapThread(coreID, t)
	k.Stats.Exits++
	k.tr(coreID, t, trace.Fault, 0)
	k.wakeJoiners(t, k.cores[coreID].Now)
}

// reapThread is the reclamation half of exit: every ledgered resource
// is returned and the thread's region holds are dropped. Counter
// values are preserved, not folded — the deschedule inside exitThread
// already virtualized them, so the final value of a LiMiT counter
// remains table word + Saved, exactly as for a live descheduled
// thread. (Folding the remainder into the table word here would
// corrupt concurrent readers of workloads that share one virtual-
// counter word across threads; the invariant checker instead captures
// each counter's final value at the Reap probe, before any later
// thread recycles the word.)
func (k *Kernel) reapThread(coreID int, t *Thread) {
	// A group-holding thread's last frame: the deschedule inside exit/
	// fault already closed the final span, so the snapshot is exact and
	// host-side consumers (frame totals, derived metrics) see the
	// thread's complete life.
	if len(t.groups) != 0 {
		k.emitFrame(coreID, t, true)
	}
	for _, tc := range t.counters {
		k.releaseCounter(tc)
	}
	if !k.cfg.AblateReclaim {
		for _, r := range t.regions {
			k.dropRegionRef(t.Proc, r[0], r[1])
		}
	}
	t.regions = nil
	k.tr(coreID, t, trace.Reap, 0)
	if k.probes != nil && k.probes.Reap != nil {
		k.probes.Reap(coreID, t)
	}
}

// releaseCounter returns a counter's ledger accounting exactly once.
// Under AblateReclaim the release is skipped entirely — Released stays
// false and the ledgers stay charged, which is precisely what the
// bad-reap and leak oracles exist to catch.
func (k *Kernel) releaseCounter(tc *ThreadCounter) {
	if tc.Released || k.cfg.AblateReclaim {
		return
	}
	tc.Released = true
	if tc.Kind != KindPerf {
		k.slots.Release(1)
	}
	if tc.KernelTable {
		k.tableWords.Release(1)
	}
}

// addRegionRef registers the read-critical range [start, end) on
// behalf of t: the process-wide fixup table gains the range (or an
// additional reference to it — registrations are refcounted and
// deduplicated), and the thread records its hold for exit-time
// release.
func (k *Kernel) addRegionRef(t *Thread, start, end int) {
	p := t.Proc
	found := false
	for i, r := range p.FixupRegions {
		if r.Start == start && r.End == end {
			p.regionRefs[i]++
			found = true
			break
		}
	}
	if !found {
		p.FixupRegions = append(p.FixupRegions, FixupRegion{Start: start, End: end})
		p.regionRefs = append(p.regionRefs, 1)
		k.regionsLive++
		if k.regionsLive > k.regionsPeak {
			k.regionsPeak = k.regionsLive
		}
	}
	t.regions = append(t.regions, [2]int{start, end})
}

// dropRegionRef releases one hold on [start, end); the range leaves
// the process's fixup table when its last holder exits.
func (k *Kernel) dropRegionRef(p *Process, start, end int) {
	for i, r := range p.FixupRegions {
		if r.Start == start && r.End == end {
			p.regionRefs[i]--
			if p.regionRefs[i] <= 0 {
				p.FixupRegions = append(p.FixupRegions[:i], p.FixupRegions[i+1:]...)
				p.regionRefs = append(p.regionRefs[:i], p.regionRefs[i+1:]...)
				k.regionsLive--
			}
			return
		}
	}
}

// Resources is a point-in-time snapshot of the kernel's counter-
// resource accounting — the ground truth the leak-freedom oracle
// audits after a run in which every thread has exited.
type Resources struct {
	SlotsInUse   int    // pinned counter slots currently reserved
	SlotsPeak    int    // high-water mark of concurrent reservations
	SlotCapacity int    // configured ledger capacity (0: unbounded)
	SlotDenials  uint64 // allocation attempts refused by the ledger

	TableWordsInUse int // kernel-allocated virtual-counter words live
	TableWordsPeak  int

	RegionsLive int // fixup-region registrations currently held
	RegionsPeak int
}

// Resources returns the current resource-accounting snapshot.
func (k *Kernel) Resources() Resources {
	return Resources{
		SlotsInUse:      k.slots.InUse(),
		SlotsPeak:       k.slots.Peak(),
		SlotCapacity:    k.slots.Capacity(),
		SlotDenials:     k.slots.Denied(),
		TableWordsInUse: k.tableWords.InUse(),
		TableWordsPeak:  k.tableWords.Peak(),
		RegionsLive:     k.regionsLive,
		RegionsPeak:     k.regionsPeak,
	}
}

// PostSignal queues signal num with handler argument arg for t, as an
// external event source would; it is delivered at the thread's next
// boundary through the normal path (fixup applied before the frame is
// saved). Tests use it to land deliveries inside read-critical
// regions.
func (k *Kernel) PostSignal(t *Thread, num int, arg uint64) { k.post(t, num, arg) }
