package kernel

import (
	"limitsim/internal/isa"
	"limitsim/internal/trace"
)

// Syscall numbers. Arguments travel in R0..R3, the result in R0.
const (
	// SysYield voluntarily ends the time slice.
	SysYield int64 = iota
	// SysGetTID returns the thread ID.
	SysGetTID
	// SysLogValue records (tag=R0, value=R1) in the kernel log for
	// host-side inspection.
	SysLogValue
	// SysNanosleep blocks for R0 cycles.
	SysNanosleep
	// SysFutexWait blocks while mem64[R0] == R1; returns 0 when woken,
	// 1 when the value already differed.
	SysFutexWait
	// SysFutexWake wakes up to R1 waiters on mem64[R0]; returns the
	// count woken.
	SysFutexWake
	// SysSigaction installs handler PC R1 for signal R0 (process-wide).
	SysSigaction

	// SysPerfOpen allocates a perf-style counter for event R0 with ring
	// flags R1 (bit0 user, bit1 kernel); returns the fd or ^0.
	SysPerfOpen
	// SysPerfRead returns the 64-bit virtualized value of counter fd R0.
	SysPerfRead
	// SysPerfReset zeroes counter fd R0.
	SysPerfReset
	// SysPerfClose releases counter fd R0.
	SysPerfClose

	// SysLimitInit enables userspace rdpmc for the calling process (the
	// LiMiT kernel patch's CR4.PCE bit).
	SysLimitInit
	// SysLimitOpen allocates a LiMiT counter for event R0 with ring
	// flags R1, using the user-memory 64-bit virtual counter at address
	// R2; returns the hardware counter index or ^0.
	SysLimitOpen
	// SysLimitRegisterFixup registers the read-critical PC range
	// [R0, R1) for the calling process.
	SysLimitRegisterFixup
	// SysLimitClose releases LiMiT counter index R0.
	SysLimitClose

	// SysIO performs a modeled blocking I/O write of R0 bytes: a
	// kernel-heavy operation (copy + device queueing) whose cost scales
	// with the byte count. Returns the byte count. Workload models use
	// it for socket/file traffic (the Apache case study's dominant
	// kernel time).
	SysIO

	// SysSpawn creates a new thread in the calling process starting at
	// entry PC R0, with tls.SlotReg-convention register R14 set to R1
	// and RNG seeded from R2. Returns the new thread's ID.
	SysSpawn
	// SysJoin blocks until thread R0 terminates; returns 0, or ^0 for
	// an unknown thread ID.
	SysJoin

	// SysSampleStart begins sampled profiling of event R0 with period
	// R1 on the calling thread; returns the counter index or ^0.
	SysSampleStart
	// SysSampleStop ends sampled profiling.
	SysSampleStop

	// SysClone creates a new thread at entry PC R0 with R14 = R1 and
	// RNG seeded from R2, like SysSpawn — but the child *inherits* the
	// caller's open counters: same events, rings, and kinds, with values
	// starting from zero so parent and child deltas fold without double
	// counting. R3 supplies the base of the child's virtual-counter
	// table for inherited LiMiT counters (word i backs counter i); 0
	// lets the kernel allocate backing words instead. The parent
	// receives the child TID (or RetErr for a bad entry PC). The child
	// starts with R0 = 0 when inheritance is exact, or 1 when PMU-slot
	// exhaustion degraded its counters to multiplexed perf estimates.
	SysClone
	// SysExit terminates the calling thread through the full teardown
	// path: its counters are virtualized one final time (a LiMiT
	// counter's value remains table word + saved remainder, as for any
	// descheduled thread), then every resource the thread holds —
	// pinned counter slots, kernel-allocated table words, fixup-region
	// registrations — is reclaimed.
	SysExit

	// SysGroupOpen opens an event group atomically: R0 is the address of
	// a descriptor table (one word per event: event id in the low 32
	// bits, ring flags in the high 32), R1 the event count. The group's
	// events schedule onto hardware together or not at all and rotate
	// with the other groups on the kernel's rotation quantum. Returns
	// the group id or ^0. Groups are not inherited across SysClone.
	SysGroupOpen
	// SysGroupRead returns the scaled estimate (raw × enabled/running,
	// 128-bit integer arithmetic) of event index R1 in group R0.
	SysGroupRead
	// SysGroupClose stops group R0; its values freeze for host reads.
	SysGroupClose

	numSyscalls
)

// Syscall error returns. RetErr is a permanent failure. RetAgain
// signals transient resource exhaustion (the pinned-counter slot
// ledger is full): the caller may back off and retry, or fall back to
// a degraded access path — generated code materializes the sentinels
// with MovImm(reg, -1) and MovImm(reg, -2).
const (
	RetErr   = ^uint64(0)
	RetAgain = ^uint64(0) - 1
)

const errRet = RetErr

// syscall dispatches a trap. The calling thread is current on coreID
// and its PC already points past the syscall instruction.
func (k *Kernel) syscall(coreID int, t *Thread, num int64) {
	core := k.cores[coreID]
	c := k.cfg.Costs
	core.KernelWork(c.SyscallEntry)
	t.Stats.Syscalls++
	k.Stats.Syscalls++
	k.tr(coreID, t, trace.Syscall, uint64(num))

	regs := &t.Ctx.Regs
	switch num {
	case SysYield:
		core.KernelWork(c.Simple)
		k.deschedule(coreID, t)
		t.State = StateReady
		t.ReadyAt = core.Now
		k.runq[coreID] = append(k.runq[coreID], t)

	case SysGetTID:
		core.KernelWork(c.Simple)
		regs[isa.R0] = uint64(t.ID)

	case SysLogValue:
		core.KernelWork(c.Simple)
		k.logs = append(k.logs, LogEntry{
			TID: t.ID, Tag: regs[isa.R0], Value: regs[isa.R1], Cycle: core.Now,
		})

	case SysNanosleep:
		core.KernelWork(c.Nanosleep)
		dur := regs[isa.R0]
		// The deadline must fit below ^0, the sleeper set's "no
		// deadline" sentinel; one that would wrap or reach it faults
		// the thread, as an unknown syscall does.
		if dur >= ^uint64(0)-core.Now {
			k.faultThread(coreID, t, "nanosleep "+itoa(int64(dur))+": deadline overflows the clock")
			return
		}
		k.block(coreID, t, StateSleeping)
		t.WakeAt = core.Now + dur
		k.sleepers = append(k.sleepers, t)
		if t.WakeAt < k.minWake {
			k.minWake = t.WakeAt
		}

	case SysFutexWait:
		core.KernelWork(c.Futex)
		addr, expected := regs[isa.R0], regs[isa.R1]
		if t.Proc.Mem.Read64(addr) != expected {
			regs[isa.R0] = 1
			break
		}
		key := futexKey{proc: t.Proc.ID, addr: addr}
		k.block(coreID, t, StateBlocked)
		k.futexes[key] = append(k.futexes[key], t)

	case SysFutexWake:
		core.KernelWork(c.Futex)
		addr, maxWake := regs[isa.R0], regs[isa.R1]
		key := futexKey{proc: t.Proc.ID, addr: addr}
		waiters := k.futexes[key]
		n := uint64(0)
		for n < maxWake && len(waiters) > 0 {
			w := waiters[0]
			waiters = waiters[1:]
			k.wake(w, core.Now)
			n++
		}
		if len(waiters) == 0 {
			delete(k.futexes, key)
		} else {
			k.futexes[key] = waiters
		}
		regs[isa.R0] = n

	case SysSigaction:
		core.KernelWork(c.Sigaction)
		t.Proc.handlers[int(regs[isa.R0])] = int(regs[isa.R1])

	case SysPerfOpen:
		core.KernelWork(c.PerfOpen)
		regs[isa.R0] = k.perfOpen(coreID, t, regs[isa.R0], regs[isa.R1])
	case SysPerfRead:
		core.KernelWork(c.PerfRead)
		regs[isa.R0] = k.perfRead(coreID, t, regs[isa.R0])
	case SysPerfReset:
		core.KernelWork(c.PerfReset)
		k.perfReset(coreID, t, regs[isa.R0])
	case SysPerfClose:
		core.KernelWork(c.PerfClose)
		k.counterClose(coreID, t, regs[isa.R0])

	case SysLimitInit:
		core.KernelWork(c.LimitInit)
		t.Proc.AllowRdPMC = true
		t.Ctx.AllowRdPMC = true
	case SysLimitOpen:
		core.KernelWork(c.LimitOpen)
		r := k.limitOpen(coreID, t, regs[isa.R0], regs[isa.R1], regs[isa.R2])
		if r == RetAgain {
			k.Stats.LimitOpenAgain++
		}
		regs[isa.R0] = r
	case SysLimitRegisterFixup:
		core.KernelWork(c.LimitFixup)
		k.addRegionRef(t, int(regs[isa.R0]), int(regs[isa.R1]))
	case SysLimitClose:
		core.KernelWork(c.Simple)
		k.counterClose(coreID, t, regs[isa.R0])

	case SysIO:
		bytes := regs[isa.R0]
		if bytes > 1<<20 {
			bytes = 1 << 20
		}
		core.KernelWork(c.IOBase + bytes/16)
		k.kernDataBase += 64
		core.KernelCachePollution(k.kernDataBase, int(bytes/256)+4)

	case SysSpawn:
		core.KernelWork(c.Spawn)
		entry := int(regs[isa.R0])
		if entry < 0 || entry >= t.Proc.Prog.Len() {
			regs[isa.R0] = errRet
			break
		}
		nt := k.Spawn(t.Proc, t.Name+"+", entry, regs[isa.R2])
		nt.Ctx.Regs[isa.R14] = regs[isa.R1]
		nt.ReadyAt = core.Now
		regs[isa.R0] = uint64(nt.ID)

	case SysJoin:
		core.KernelWork(c.Simple)
		tid := regs[isa.R0]
		if tid == 0 || tid > uint64(len(k.threads)) {
			regs[isa.R0] = errRet
			break
		}
		target := k.threads[tid-1]
		if target == t {
			regs[isa.R0] = errRet // self-join would deadlock
			break
		}
		if target.State == StateDone {
			regs[isa.R0] = 0
			break
		}
		k.block(coreID, t, StateBlocked)
		target.joiners = append(target.joiners, t)
		regs[isa.R0] = 0

	case SysSampleStart:
		core.KernelWork(c.SampleStart)
		regs[isa.R0] = k.sampleStart(coreID, t, regs[isa.R0], regs[isa.R1])
	case SysSampleStop:
		core.KernelWork(c.SampleStop)
		k.sampleStop(coreID, t)

	case SysClone:
		cloneStart := core.Now
		core.KernelWork(c.Clone)
		regs[isa.R0] = k.clone(coreID, t,
			int(regs[isa.R0]), regs[isa.R1], regs[isa.R2], regs[isa.R3])
		if k.metrics != nil {
			k.metrics.CloneCycles.Observe(core.Now - cloneStart)
		}

	case SysExit:
		core.KernelWork(c.Exit)
		k.exitThread(coreID, t, exitVoluntary)
		return

	case SysGroupOpen:
		core.KernelWork(c.GroupOpen)
		regs[isa.R0] = k.groupOpen(coreID, t, regs[isa.R0], regs[isa.R1])
	case SysGroupRead:
		core.KernelWork(c.GroupRead)
		regs[isa.R0] = k.groupRead(coreID, t, regs[isa.R0], regs[isa.R1])
	case SysGroupClose:
		core.KernelWork(c.Simple)
		regs[isa.R0] = k.groupClose(coreID, t, regs[isa.R0])

	default:
		k.faultThread(coreID, t, "unknown syscall "+itoa(num))
		return
	}

	core.KernelWork(c.SyscallExit)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
