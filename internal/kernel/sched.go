package kernel

import (
	"limitsim/internal/cpu"
	"limitsim/internal/pmu"
	"limitsim/internal/trace"
)

// NextActionTime returns the earliest cycle at which the core can do
// useful work, and whether any such time exists. The machine loop uses
// it to pick the causally-next core.
func (k *Kernel) NextActionTime(coreID int) (uint64, bool) {
	now := k.cores[coreID].Now
	if k.cur[coreID] != nil {
		return now, true
	}
	best, ok := uint64(0), false
	for _, t := range k.runq[coreID] {
		at := t.ReadyAt
		if at < now {
			at = now
		}
		if !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

// NextSleeperWake returns the earliest nanosleep deadline, if any
// thread is sleeping.
func (k *Kernel) NextSleeperWake() (uint64, bool) {
	if k.minWake == ^uint64(0) {
		return 0, false
	}
	return k.minWake, true
}

// WakeSleepersUpTo moves every sleeper whose deadline is ≤ cycle onto a
// run queue. Small enough to inline: minWake caches the earliest
// deadline, so the machine loop's per-burst call is one compare while
// nobody's alarm has fired.
func (k *Kernel) WakeSleepersUpTo(cycle uint64) bool {
	if cycle < k.minWake {
		return false
	}
	return k.wakeSleepers(cycle)
}

func (k *Kernel) wakeSleepers(cycle uint64) (woke bool) {
	kept := k.sleepers[:0]
	min := ^uint64(0)
	for _, t := range k.sleepers {
		if t.WakeAt <= cycle {
			t.State = StateReady
			t.ReadyAt = t.WakeAt
			k.enqueue(t)
			woke = true
		} else {
			kept = append(kept, t)
			if t.WakeAt < min {
				min = t.WakeAt
			}
		}
	}
	k.sleepers = kept
	k.minWake = min
	return woke
}

// enqueue places a ready thread on a core's run queue according to the
// migration policy.
func (k *Kernel) enqueue(t *Thread) {
	core := t.HomeCore
	if k.cfg.MigrateOnWake {
		core = k.leastLoadedCore()
	}
	if k.chaos != nil && k.chaos.Place != nil {
		if c := k.chaos.Place(t, core); c >= 0 && c < len(k.cores) {
			core = c
		}
	}
	k.runq[core] = append(k.runq[core], t)
}

// postStep runs the instruction-boundary work after one executed
// instruction: PMI raising and delivery, trap routing, chaos hooks,
// and signal delivery. It reports whether the boundary was quiet:
// nothing ran that can change state outside this core — no PMI was
// serviced, no trap, no forced clone, the thread is still current (no
// kill, vCPU preemption or preemption) and no signal is pending — so
// the burst may go on. A FlushAfter flush is quiet: every core has its
// own caches and TLB.
func (k *Kernel) postStep(coreID int, t *Thread, trap cpu.TrapKind, res *cpu.StepResult, mask uint64) (quiet bool) {
	core := k.cores[coreID]

	// Overflow interrupts land at the instruction boundary, before any
	// trap handling — exactly where they can tear a LiMiT read. The
	// chaos filter may delay bits (withholding them for later) or set
	// extra ones (spurious interrupts).
	k.markPMIRaise(coreID, mask)
	if k.chaos != nil && k.chaos.FilterPMI != nil {
		mask = k.chaos.FilterPMI(coreID, t, mask)
	}
	if mask != 0 {
		k.handlePMI(coreID, mask)
	}

	switch trap {
	case cpu.TrapNone:
		// fall through to signal delivery
	case cpu.TrapSyscall:
		k.syscall(coreID, t, res.SyscallNum)
	case cpu.TrapSigReturn:
		k.sigReturn(coreID, t)
	case cpu.TrapHalt:
		// Full exit path: counters are virtualized by the deschedule,
		// remainders fold into the virtual-counter table, and every held
		// resource is reclaimed. Final LiMiT/perf values survive for
		// host-side reads.
		k.exitThread(coreID, t, exitHalt)
	case cpu.TrapFault:
		k.faultThread(coreID, t, res.Fault)
	}

	// Chaos: worst-case memory-system perturbation after any boundary.
	if k.chaos != nil && k.chaos.FlushAfter != nil && k.chaos.FlushAfter(coreID, t) {
		core.TLB.FlushAll()
		core.Caches.FlushAll()
	}

	// Chaos: forced clone, asynchronous kill, or adversarial timer
	// interrupt at any boundary (each checks that the thread is still
	// current — an earlier hook may have removed it).
	cloned := k.chaosClone(coreID)
	k.chaosKill(coreID)
	k.chaosVCpuPreempt(coreID)
	k.chaosPreempt(coreID)

	// Deliver pending signals on the way back to user (unless the
	// chaos hook is delaying delivery at this boundary).
	ct := k.cur[coreID]
	if ct != nil && len(ct.pending) > 0 {
		if k.chaos == nil || k.chaos.HoldSignal == nil || !k.chaos.HoldSignal(coreID, ct) {
			k.deliverSignals(coreID, ct)
		}
	}
	return mask == 0 && trap == cpu.TrapNone && !cloned && ct == t && len(t.pending) == 0
}

// RunCore advances core coreID until its clock reaches horizon, up to
// maxSteps instructions (0 means unbounded), or until a boundary that
// could influence another core or the sleeper set — a trap, a PMI, a
// forced clone, a kill or preemption, or a pending signal — at which
// point it hands control back for a global core re-pick. Its loop runs
// the interpreter in cpu.Core.Run segments and does the boundary work
// between them; it is where the simulator spends nearly all of its
// time.
//
// A burst is observationally identical to one instruction per global
// pick: while every boundary stays quiet, the running core's state is
// invisible to other cores, so the pick would keep choosing it until
// its clock passes the horizon the machine computed. Attached chaos
// hooks and probes run at every boundary inside the burst, in the
// order the single-step loop would call them.
// The clean result reports that every boundary was quiet, so no state
// outside the core — other cores' queues, sleepers, thread lifetimes
// — can have changed, and the caller may keep its cached view of
// them. now returns the core's clock after the burst, saving the
// caller the re-read.
func (k *Kernel) RunCore(coreID int, horizon uint64, maxSteps uint64) (steps, now uint64, clean bool) {
	if maxSteps == 0 {
		maxSteps = ^uint64(0)
	}
	core := k.cores[coreID]
	t := k.cur[coreID]
	// Scheduling (tenant and thread timers, then picking a thread)
	// consults and mutates other cores' queues through work stealing
	// and tenant migration, so a burst that needs it runs one
	// instruction and hands back for a global re-pick.
	single := t == nil || (core.Now >= k.quantumEnd[coreID] && len(k.runq[coreID]) > 0) ||
		(k.ts != nil && core.Now >= k.ts.quantumEnd[coreID])
	if single {
		if t = k.enter(coreID); t == nil {
			return 0, 0, false
		}
	}
	// Loop invariants: the loop goes on past postStep only when the
	// boundary was quiet, and no other core runs during the burst, so
	// the current thread, its groups, this core's run-queue length and
	// both quantum ends cannot change while it runs. Hoisting their
	// loads out of the loop is therefore exact. each runs one
	// instruction per segment and sends every boundary through the
	// probe and postStep: chaos hooks act at any of them, a pending
	// signal is delivered at the next, and a single burst's one
	// instruction ends in it.
	each := single || len(t.pending) > 0 || k.chaos != nil || k.probes != nil
	budget := uint64(1)
	var res cpu.StepResult
	// The loop's stop line folds the horizon, the quantum end (when
	// other threads wait) and the tenant quantum end into one compare.
	// A stop on either quantum end is clean: every boundary was quiet,
	// and when the core next wins the pick the entry check above runs
	// the timers, exactly as the next single-step iteration would
	// have.
	stop := horizon
	if len(k.runq[coreID]) > 0 && k.quantumEnd[coreID] < stop {
		stop = k.quantumEnd[coreID]
	}
	if k.ts != nil && k.ts.quantumEnd[coreID] < stop {
		stop = k.ts.quantumEnd[coreID]
	}
	for {
		// A segment ends at the stop line or, for a group-holding
		// thread, at the clock where group rotation is next due, so
		// rotation runs between the same two instructions as a check
		// before every instruction would run it.
		seg := stop
		if len(t.groups) != 0 {
			seg = min(seg, k.muxTick(coreID, t))
		}
		if !each {
			budget = maxSteps - steps
		}
		prevPC, start := t.Ctx.PC, core.Now
		n, ui, tr := core.Run(&t.Ctx, &res, seg, budget)
		steps += n
		t.Stats.UserInstructions += ui
		t.Stats.UserCycles += core.Now - start
		mask := core.PMU.TakePendingOverflows()
		if mask != 0 || tr != cpu.TrapNone || each {
			if p := k.probes; p != nil && p.Step != nil {
				p.Step(coreID, t, prevPC, t.Ctx.PC)
			}
			if !k.postStep(coreID, t, tr, &res, mask) || single {
				return steps, core.Now, false
			}
		}
		if steps >= maxSteps || core.Now >= stop {
			return steps, core.Now, true
		}
	}
}

// enter runs the kernel work that may precede a burst — the tenant
// timer (an expired vCPU quantum preempts the whole guest, the double
// context switch, before the thread-level timer gets a say), the
// thread timer, then scheduling — and returns the thread now current,
// or nil when the core has nothing runnable yet. It stays out of line
// so the prelude does not widen RunCore's frame, which every burst
// pays for.
//
//go:noinline
func (k *Kernel) enter(coreID int) *Thread {
	k.tenantTick(coreID)
	if t := k.cur[coreID]; t != nil && k.cores[coreID].Now >= k.quantumEnd[coreID] && len(k.runq[coreID]) > 0 {
		k.preempt(coreID, false)
	}
	if k.cur[coreID] == nil && !k.schedule(coreID) {
		return nil
	}
	return k.cur[coreID]
}

// schedule installs the next runnable thread on the core. Returns false
// if nothing can run yet. It may steal from other cores when work
// stealing is enabled and advances the core clock to the thread's
// ReadyAt when the thread was woken in this core's future.
func (k *Kernel) schedule(coreID int) bool {
	core := k.cores[coreID]
	if k.ts != nil {
		k.tenantMigrate(coreID)
	}
	q := k.runq[coreID]
	pick := -1
	if k.ts != nil {
		pick = k.tenantPick(coreID)
	} else {
		for i, t := range q {
			if t.ReadyAt <= core.Now {
				pick = i
				break
			}
		}
	}
	if pick == -1 && k.cfg.WorkStealing {
		if victim, vi, ok := k.stealVictim(coreID); ok {
			k.runq[vi] = append(k.runq[vi][:victim.qIdx], k.runq[vi][victim.qIdx+1:]...)
			q = append(q, victim.t)
			k.runq[coreID] = q
			pick = len(q) - 1
			k.Stats.Steals++
		}
	}
	if pick == -1 {
		// Nothing immediately runnable: run the earliest future-ready
		// thread, idling the core until then.
		var bestAt uint64
		for i, t := range q {
			if pick == -1 || t.ReadyAt < bestAt {
				pick, bestAt = i, t.ReadyAt
			}
		}
		if pick == -1 {
			return false
		}
		if bestAt > core.Now {
			core.Now = bestAt
		}
	}
	next := q[pick]
	k.runq[coreID] = append(q[:pick], q[pick+1:]...)
	k.switchTo(coreID, next)
	return true
}

type stolen struct {
	t    *Thread
	qIdx int
}

// stealVictim finds an immediately-runnable thread on the most loaded
// other core, and that core; ok is false when there is none. An idle
// core steals even a lone waiting thread — sitting idle is never
// better.
func (k *Kernel) stealVictim(thief int) (victim stolen, core int, ok bool) {
	now := k.cores[thief].Now
	bestCore, bestLen := -1, 0
	for i := range k.cores {
		if i == thief {
			continue
		}
		if len(k.runq[i]) > bestLen {
			bestCore, bestLen = i, len(k.runq[i])
		}
	}
	if bestCore == -1 {
		return stolen{}, 0, false
	}
	for j := len(k.runq[bestCore]) - 1; j >= 0; j-- {
		if t := k.runq[bestCore][j]; t.ReadyAt <= now && k.tenantStealOK(thief, t) {
			return stolen{t: t, qIdx: j}, bestCore, true
		}
	}
	return stolen{}, 0, false
}

// preempt deschedules the current thread involuntarily — timer,
// vCPU or chaos — and requeues it ready at the core's clock. place
// lets the chaos Place hook redirect the requeue, after the
// deschedule.
func (k *Kernel) preempt(coreID int, place bool) {
	t := k.cur[coreID]
	t.Stats.Preemptions++
	k.Stats.Preemptions++
	k.deschedule(coreID, t)
	t.State = StateReady
	t.ReadyAt = k.cores[coreID].Now
	core := coreID
	if place && k.chaos.Place != nil {
		if c := k.chaos.Place(t, core); c >= 0 && c < len(k.cores) {
			core = c
		}
	}
	k.runq[core] = append(k.runq[core], t)
}

// deschedule saves thread state, applies the LiMiT fixup, and charges
// the switch-out half of the context switch cost.
func (k *Kernel) deschedule(coreID int, t *Thread) {
	core := k.cores[coreID]
	start := core.Now
	// Drain overflow interrupts that are still pending so they are
	// serviced for their rightful owner; left alone, they would be
	// consumed after the switch and misattributed to the next thread.
	// Interrupts the chaos layer withheld are drained here too — this
	// is the single choke point every path off a core goes through.
	mask := core.PMU.TakePendingOverflows()
	k.markPMIRaise(coreID, mask)
	if k.chaos != nil && k.chaos.DrainPMI != nil {
		mask |= k.chaos.DrainPMI(coreID, t)
	}
	if mask != 0 {
		k.pmiFor(coreID, t, mask)
	}
	k.applyFixup(t)
	k.saveCounters(core, t)
	if k.probes != nil && k.probes.SwitchOut != nil {
		k.probes.SwitchOut(coreID, t)
	}
	k.tr(coreID, t, trace.SwitchOut, 0)
	t.Stats.CtxSwitches++
	k.Stats.CtxSwitches++
	core.PMU.AddEvent(pmu.RingKernel, pmu.EvCtxSwitches, 1)
	if k.metrics != nil {
		k.metrics.SwitchOutCycles.Observe(core.Now - start)
	}
	k.cur[coreID] = nil
}

// switchTo completes a context switch onto next.
func (k *Kernel) switchTo(coreID int, next *Thread) {
	// Guest level first: make next's tenant resident (charging the vCPU
	// switch when the core changes hands between tenants) before the
	// thread-level switch costs start, so the base switch histograms
	// stay comparable with the tenant layer off.
	if k.ts != nil {
		k.tenantEnsure(coreID, k.ts.tenantOf(next))
	}
	core := k.cores[coreID]
	c := k.cfg.Costs
	start := core.Now
	core.KernelWork(c.CtxSwitchBase)
	k.kernDataBase += 64 // touch a sliding kernel region
	core.KernelCachePollution(k.kernDataBase, ctxSwitchPollutionLines)
	if next.HomeCore != coreID {
		next.Stats.Migrations++
		k.Stats.Migrations++
		next.HomeCore = coreID
	}
	// Switching address spaces flushes the untagged TLB.
	if k.lastProc[coreID] != next.Proc.ID {
		core.TLB.FlushAll()
		k.lastProc[coreID] = next.Proc.ID
	}
	k.restoreCounters(core, next)
	next.State = StateRunning
	next.Ctx.AllowRdPMC = next.Proc.AllowRdPMC
	k.tr(coreID, next, trace.SwitchIn, 0)
	if k.metrics != nil {
		k.metrics.SwitchInCycles.Observe(core.Now - start)
	}
	k.cur[coreID] = next
	k.quantumEnd[coreID] = core.Now + k.cfg.Quantum
}

// applyFixup implements the LiMiT kernel patch's atomicity guarantee:
// if the thread is stopped inside a registered read-critical region,
// rewind its PC to the region start so the read sequence re-executes
// from scratch when the thread resumes.
func (k *Kernel) applyFixup(t *Thread) {
	for _, r := range t.Proc.FixupRegions {
		if r.Contains(t.Ctx.PC) {
			from := t.Ctx.PC
			t.Ctx.PC = r.Start
			t.Stats.FixupRewinds++
			if k.probes != nil && k.probes.Rewind != nil {
				k.probes.Rewind(t, from, r.Start)
			}
			return
		}
	}
	// The check ran with regions registered but the PC was outside every
	// read-critical range: the common case the fixup design keeps free.
	if len(t.Proc.FixupRegions) > 0 {
		k.Stats.RewindsAvoided++
	}
}

// saveCounters virtualizes the thread's counters on deschedule. With
// hardware virtualization (enhancement e3) the save is free; otherwise
// each loaded slot costs an MSR read, plus a write to stop it.
func (k *Kernel) saveCounters(core *cpu.Core, t *Thread) {
	if len(t.counters) == 0 && len(t.groups) == 0 {
		return
	}
	// Close the span first: drains loaded group counters and attributes
	// ground truth at this instant, before any MSR cost lands.
	k.spanClose(core, t)
	hwVirt := core.PMU.Features().HardwareVirtualization
	writeLimit := core.PMU.WriteLimit()
	for _, tc := range t.counters {
		slot := tc.HWSlot
		if slot < 0 {
			continue // unloaded, closed, or a perf counter (its group holds the slot)
		}
		v := core.PMU.Read(slot)
		if !hwVirt {
			core.KernelWork(k.cfg.Costs.MSRRead)
		}
		if tc.Kind == KindLimit {
			// The hardware value must stay below the write limit so it
			// can be restored later; fold any excess now (this happens
			// when the overflow interrupt was pending at switch time).
			for v >= writeLimit && writeLimit != ^uint64(0) {
				t.Proc.Mem.Add64(tc.TableAddr, writeLimit)
				v -= writeLimit
				tc.Overflows++
				k.Stats.OverflowFolds++
				core.KernelWork(k.cfg.Costs.OverflowFold)
				k.probeFold(core.ID, t, tc, writeLimit)
			}
		}
		tc.Saved = v
		// Disable the hardware counter so the next thread's events
		// don't leak in before restore programs it.
		core.PMU.Configure(slot, pmu.CounterConfig{Enabled: false, OverflowBit: -1})
		if !hwVirt {
			core.KernelWork(k.cfg.Costs.MSRWrite)
		}
		tc.HWSlot = -1
	}
	// Park every loaded group, perf counters' included. Their counts
	// were drained by spanClose above; the park itself is a save (MSR
	// read) plus a disable (MSR write) per slot, all charged outside
	// the closed span.
	parked := 0
	for _, g := range t.groupSlots {
		if g != nil {
			parked += k.groupPark(core, t, g)
		}
	}
	if parked > 0 && !hwVirt {
		core.KernelWork((k.cfg.Costs.MSRRead + k.cfg.Costs.MSRWrite) * uint64(parked))
	}
}

// programSlot loads pinned counter ci into hardware slot ci.
func (k *Kernel) programSlot(core *cpu.Core, t *Thread, ci int) {
	tc := t.counters[ci]
	core.PMU.Configure(ci, pmu.CounterConfig{
		Event:       tc.Event,
		CountUser:   tc.CountUser,
		CountKernel: tc.CountKernel,
		Enabled:     true,
		OverflowBit: tc.OverflowBit,
	})
	core.PMU.Write(ci, tc.Saved)
	if !core.PMU.Features().HardwareVirtualization {
		core.KernelWork(k.cfg.Costs.MSRWrite * 2) // evtsel + value
	}
	tc.HWSlot = ci
}

// restoreCounters programs the core's PMU for the incoming thread:
// LiMiT and sampling counters are pinned to their own indices, and the
// open groups (perf counters' included) fill the remaining slots.
func (k *Kernel) restoreCounters(core *cpu.Core, t *Thread) {
	for slot := 0; slot < core.PMU.NumCounters(); slot++ {
		if slot < len(t.counters) && !t.counters[slot].Closed && t.counters[slot].Kind != KindPerf {
			k.programSlot(core, t, slot)
		} else {
			core.PMU.Configure(slot, pmu.CounterConfig{Enabled: false, OverflowBit: -1})
		}
	}
	// Groups price their MSR traffic before the span opens, so the new
	// span starts with them already counting and the truth baseline
	// marked at the same instant.
	if t.holdsGroups() {
		k.groupsLoad(core, t)
		k.groupMark(core, t)
	}
	t.spanStartAt = core.Now
}

// block removes the current thread from its core with the given state;
// the caller records it wherever it waits.
func (k *Kernel) block(coreID int, t *Thread, st ThreadState) {
	k.deschedule(coreID, t)
	t.State = st
}

// wake makes a blocked/sleeping thread runnable no earlier than cycle
// at.
func (k *Kernel) wake(t *Thread, at uint64) {
	t.State = StateReady
	t.ReadyAt = at
	k.enqueue(t)
	k.tr(t.HomeCore, t, trace.Wake, at)
}

// wakeJoiners releases every thread blocked in SysJoin on t.
func (k *Kernel) wakeJoiners(t *Thread, at uint64) {
	for _, j := range t.joiners {
		k.wake(j, at)
	}
	t.joiners = nil
}
