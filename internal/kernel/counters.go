package kernel

import "limitsim/internal/pmu"

// flag bits for the perf/limit open syscalls' ring argument.
const (
	// FlagUser counts events in the user ring.
	FlagUser uint64 = 1 << 0
	// FlagKernel counts events in the kernel ring.
	FlagKernel uint64 = 1 << 1
	// FlagEstimated marks a perf counter opened by a degraded access
	// path (the OpenPolicy fallback after slot exhaustion), so host-
	// side readers report its values as estimates rather than exact
	// counts.
	FlagEstimated uint64 = 1 << 2
)

// maxCountersPerThread bounds the multiplexed perf pool (a runaway
// guard; Linux is effectively unbounded).
const maxCountersPerThread = 32

// pinnedIn returns the loaded pinned counter in hardware slot, or nil.
// Pinned counters sit at slot == index, so no ledger is needed.
func (t *Thread) pinnedIn(slot int) *ThreadCounter {
	if slot < len(t.counters) && t.counters[slot].HWSlot == slot {
		return t.counters[slot]
	}
	return nil
}

// allocCounter registers a counter with the thread and returns its
// index (the userspace fd / rdpmc slot) or errRet. Pinned kinds
// (LiMiT, sampling) must fit within the PMU's slots because userspace
// encodes the slot number; perf counters may exceed the hardware and
// will be time-multiplexed. Closed entries are reused to preserve
// index stability of the survivors.
func (k *Kernel) allocCounter(coreID int, t *Thread, tc *ThreadCounter) uint64 {
	core := k.cores[coreID]
	n := core.PMU.NumCounters()
	pinned := tc.Kind != KindPerf

	// Close the current span before the new counter enters the table,
	// so a perf counter's group starts at zero. This also drains any
	// loaded groups, so a group evicted below loses nothing.
	k.spanClose(core, t)

	idx := -1
	for i, old := range t.counters {
		if old.Closed && (!pinned || i < n) {
			idx = i
			break
		}
	}
	if idx == -1 {
		if pinned && len(t.counters) >= n {
			return RetErr
		}
		if len(t.counters) >= maxCountersPerThread {
			return RetErr
		}
	}
	// Pinned kinds reserve kernel counter state from the slot ledger;
	// denial is transient (slots return when their holders close or
	// exit), so it reports RetAgain rather than RetErr and callers may
	// back off and retry or fall back to the multiplexed perf path. The
	// reservation comes after every permanent-failure check so a denied
	// or failed allocation never holds a slot.
	if pinned && !k.slots.TryAcquire(1) {
		return RetAgain
	}
	if idx == -1 {
		t.counters = append(t.counters, tc)
		idx = len(t.counters) - 1
	} else {
		t.counters[idx] = tc
	}
	tc.HWSlot = -1

	// Load onto hardware immediately when a slot is available; the
	// thread is running here.
	if pinned {
		if idx < len(t.groupSlots) && t.groupSlots[idx] != nil {
			// Slot backs a group, perhaps a perf counter's: counters
			// outrank groups, so the whole group yields (atomic scheduling
			// — it loads all slots or none) and waits for the next
			// switch-in or rotation window.
			k.groupPark(core, t, t.groupSlots[idx])
		}
		k.programSlot(core, t, idx)
		return uint64(idx)
	}
	// A perf counter is a one-event group counting from this instant.
	// SysPerfOpen enables it before charging the MSR writes.
	tc.group = perfGroup(tc)
	k.startGroup(core, t, tc.group, k.newPlan(core, t, false))
	if tc.group.Loaded && !core.PMU.Features().HardwareVirtualization {
		core.KernelWork(k.cfg.Costs.MSRWrite * 2) // evtsel + value
	}
	return uint64(idx)
}

func (k *Kernel) counterAt(t *Thread, fd uint64) *ThreadCounter {
	if fd >= uint64(len(t.counters)) || t.counters[fd].Closed {
		return nil
	}
	return t.counters[fd]
}

// perfGroupAt returns the group behind open perf counter fd, or nil.
// A LiMiT or sampling fd has no group, so the perf syscalls treat it
// exactly like a closed fd.
func (k *Kernel) perfGroupAt(t *Thread, fd uint64) *EventGroup {
	if tc := k.counterAt(t, fd); tc != nil {
		return tc.group
	}
	return nil
}

// perfOpen implements SysPerfOpen.
func (k *Kernel) perfOpen(coreID int, t *Thread, event, flags uint64) uint64 {
	if event >= uint64(pmu.NumEvents) {
		return errRet
	}
	if flags&FlagEstimated != 0 {
		k.Stats.DegradedOpens++
	}
	return k.allocCounter(coreID, t, &ThreadCounter{
		Kind:        KindPerf,
		Event:       pmu.Event(event),
		CountUser:   flags&FlagUser != 0,
		CountKernel: flags&FlagKernel != 0,
		Estimated:   flags&FlagEstimated != 0,
		OverflowBit: -1,
	})
}

// perfRead implements SysPerfRead: the counter's group estimate, fresh
// as of this instant. It is exact while the group has been loaded for
// its whole life; otherwise it is Linux perf's time_enabled/
// time_running scaled estimate, whose error the multiplexing
// experiments measure.
func (k *Kernel) perfRead(coreID int, t *Thread, fd uint64) uint64 {
	g := k.perfGroupAt(t, fd)
	if g == nil {
		return errRet
	}
	k.spanClose(k.cores[coreID], t)
	return g.Estimate(0)
}

// perfReset implements SysPerfReset: the counter's group restarts from
// zero at this instant, as if just opened. The spanClose drain has
// already zeroed a loaded hardware slot.
func (k *Kernel) perfReset(coreID int, t *Thread, fd uint64) {
	g := k.perfGroupAt(t, fd)
	if g == nil {
		return
	}
	k.spanClose(k.cores[coreID], t)
	g.Raw[0], g.True[0] = 0, 0
	g.EnabledCycles, g.RunningCycles = 0, 0
	g.OpenSchedMark = t.Stats.SchedCycles
}

// counterClose disables a counter, freeing its hardware slot.
func (k *Kernel) counterClose(coreID int, t *Thread, fd uint64) {
	tc := k.counterAt(t, fd)
	if tc == nil {
		return
	}
	core := k.cores[coreID]
	k.spanClose(core, t)
	tc.Closed = true
	k.releaseCounter(tc)
	if tc.group != nil {
		k.closeGroup(core, t, tc.group)
	}
	if tc.HWSlot >= 0 {
		core.PMU.Configure(tc.HWSlot, pmu.CounterConfig{Enabled: false, OverflowBit: -1})
		tc.HWSlot = -1
	}
	if t.sampler == int(fd) {
		t.sampler = -1
	}
}

// limitOverflowBit returns the overflow interrupt position for LiMiT
// counters on the given PMU: the write-width bit when hardware counters
// cannot be fully restored by software writes (the stock-hardware
// case), or -1 with fully writable 64-bit counters (enhancement e1),
// where no folding is ever needed.
func limitOverflowBit(p *pmu.PMU) int {
	f := p.Features()
	if f.WriteWidth >= f.CounterWidth && f.WriteWidth >= 64 {
		return -1
	}
	return f.WriteWidth
}

// limitOpen implements SysLimitOpen.
func (k *Kernel) limitOpen(coreID int, t *Thread, event, flags, tableAddr uint64) uint64 {
	if event >= uint64(pmu.NumEvents) {
		return errRet
	}
	if !t.Proc.AllowRdPMC {
		return errRet // SysLimitInit must come first
	}
	// Zero the user-visible virtual counter.
	t.Proc.Mem.Write64(tableAddr, 0)
	return k.allocCounter(coreID, t, &ThreadCounter{
		Kind:        KindLimit,
		Event:       pmu.Event(event),
		CountUser:   flags&FlagUser != 0,
		CountKernel: flags&FlagKernel != 0,
		TableAddr:   tableAddr,
		OverflowBit: limitOverflowBit(k.cores[coreID].PMU),
	})
}

// sampleStart implements SysSampleStart.
func (k *Kernel) sampleStart(coreID int, t *Thread, event, period uint64) uint64 {
	core := k.cores[coreID]
	if event >= uint64(pmu.NumEvents) || period == 0 || period >= core.PMU.WriteLimit() {
		return errRet
	}
	ob := core.PMU.Features().WriteWidth
	if ob >= 64 {
		ob = 47
	}
	tc := &ThreadCounter{
		Kind:        KindSample,
		Event:       pmu.Event(event),
		CountUser:   true,
		CountKernel: false,
		Period:      period,
		OverflowBit: ob,
		Saved:       (uint64(1) << uint(ob)) - period,
	}
	idx := k.allocCounter(coreID, t, tc)
	if idx < RetAgain {
		t.sampler = int(idx)
	}
	return idx
}

// sampleStop implements SysSampleStop.
func (k *Kernel) sampleStop(coreID int, t *Thread) {
	if t.sampler >= 0 {
		k.counterClose(coreID, t, uint64(t.sampler))
	}
}
