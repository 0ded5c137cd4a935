package kernel

import "limitsim/internal/isa"

// This file is the kernel's instrumentation surface for the chaos
// harness: a fault-injection hook set (Chaos) that lets a driver bend
// scheduling, interrupt delivery and placement decisions at every
// instruction boundary, and an observation hook set (Probes) that lets
// an invariant checker watch the exact events — folds, rewinds,
// switches — whose interleaving LiMiT's fixup protocol must survive.
//
// Both are structs of optional funcs rather than interfaces so a
// driver installs only the hooks it needs; every call site nil-checks.
// Hooks run synchronously inside the deterministic event loop, so an
// attached injector is part of the simulation: same seed, same chaos,
// same run, bit for bit.

// Chaos is the fault-injection hook set. All hooks are optional.
type Chaos struct {
	// PreemptAfter is consulted after every retired instruction while
	// t is still current on coreID; returning true forces an immediate
	// involuntary context switch, exactly as an adversarial timer
	// interrupt would. The thread's PC (t.Ctx.PC) is already advanced
	// past the retired instruction.
	PreemptAfter func(coreID int, t *Thread) bool

	// FilterPMI intercepts the pending-overflow mask taken at an
	// instruction boundary before the kernel services it. The returned
	// mask is what gets serviced now: clearing bits delays those
	// interrupts (the injector must hand them back via DrainPMI or a
	// later FilterPMI call), setting extra bits injects spurious
	// interrupts for counters that did not overflow (the handler
	// tolerates them, as real PMI handlers must).
	FilterPMI func(coreID int, t *Thread, mask uint64) uint64

	// DrainPMI is called when t is about to leave coreID; it must
	// return every overflow bit the injector is still withholding for
	// this thread, so delayed interrupts are serviced for their
	// rightful owner instead of leaking to the next thread.
	DrainPMI func(coreID int, t *Thread) uint64

	// Place overrides the core a ready thread is enqueued on (wakes
	// and forced preemptions). def is the scheduler's own choice;
	// return a valid core index to redirect, or a negative value to
	// keep def. Migration storms live here.
	Place func(t *Thread, def int) int

	// HoldSignal defers pending-signal delivery to t at this return-
	// to-user boundary; delivery is retried at every subsequent
	// boundary until the hook relents.
	HoldSignal func(coreID int, t *Thread) bool

	// FlushAfter, when it returns true, flushes coreID's TLB and
	// entire cache hierarchy after the instruction that just retired —
	// the worst-case memory-system perturbation a migration or a
	// hostile neighbor could cause.
	FlushAfter func(coreID int, t *Thread) bool

	// CloneAfter is consulted after every retired instruction while t
	// is still current; returning (entry, true) forces t to clone a
	// child starting at entry, as if it had issued SysClone at this
	// boundary. The child inherits t's counters and region holds, its
	// R14 copies the parent's, its seed derives from the kernel RNG,
	// and its LiMiT table words are kernel-allocated. Clone storms
	// stress inheritance and slot churn at arbitrary points, including
	// mid-read-sequence.
	CloneAfter func(coreID int, t *Thread) (entry int, ok bool)

	// KillAfter is consulted after every retired instruction while t is
	// still current; returning true forcibly terminates the thread at
	// this boundary, as an asynchronous kill would. The kernel runs the
	// full exit path — counters virtualized and folded, every held
	// resource reclaimed — no matter where the thread was, including
	// mid-read-sequence.
	KillAfter func(coreID int, t *Thread) bool

	// VCpuPreemptAfter is consulted after every retired instruction
	// while t is still current and the tenant layer is active;
	// returning true forces a tenant-level (vCPU) preemption at this
	// boundary regardless of the tenant quantum — the double context
	// switch, landable anywhere, including mid-read-sequence. Ignored
	// when Config.Tenants <= 1.
	VCpuPreemptAfter func(coreID int, t *Thread) bool
}

// Probes is the observation hook set. All hooks are optional; none may
// mutate simulation state (they run inside the event loop and any
// side effect would perturb the run they are watching).
type Probes struct {
	// Step fires after every retired instruction, before trap handling
	// and interrupt service: prevPC is the PC the retired instruction
	// was fetched from, pc the architectural PC after it (branch
	// targets included, rewinds not yet applied). It runs inside
	// bursts and does not end them.
	Step func(coreID int, t *Thread, prevPC, pc int)

	// Fold fires once per write-limit chunk folded from a LiMiT
	// hardware counter into its user-memory virtual counter, whether
	// by the PMI handler or by the deschedule save path.
	Fold func(coreID int, t *Thread, tc *ThreadCounter, chunk uint64)

	// Rewind fires when the fixup patch rewinds a thread's PC (or its
	// saved signal frame's PC) from `from` to region start `to`.
	Rewind func(t *Thread, from, to int)

	// SwitchOut fires after t's counters have been virtualized on its
	// way off a core — the point where Saved/virtual-counter state
	// must be consistent.
	SwitchOut func(coreID int, t *Thread)

	// Clone fires after a child thread's counter inheritance is
	// complete, before the child first runs. degraded reports that
	// slot exhaustion downgraded the child's counters to multiplexed
	// perf estimates.
	Clone func(coreID int, parent, child *Thread, degraded bool)

	// Reap fires after an exiting thread's resources — slot
	// reservations, kernel table words, region holds — have been
	// reclaimed. The thread's counter values are still intact (table
	// word + Saved), so checkers capture final values here, before any
	// later thread recycles a shared table word.
	Reap func(coreID int, t *Thread)
}

// SetChaos attaches a fault-injection hook set (nil detaches).
func (k *Kernel) SetChaos(c *Chaos) { k.chaos = c }

// SetProbes attaches an observation hook set (nil detaches).
func (k *Kernel) SetProbes(p *Probes) { k.probes = p }

// chaosPreempt asks the injector whether to force-preempt the current
// thread on coreID and performs the preemption if so. Unlike the timer
// path it does not require waiting threads: an adversarial interrupt
// can land on a lone thread, round-tripping it through the full
// deschedule/reschedule machinery (and its fixup) at any boundary.
func (k *Kernel) chaosPreempt(coreID int) {
	t := k.cur[coreID]
	if t == nil || k.chaos == nil || k.chaos.PreemptAfter == nil || !k.chaos.PreemptAfter(coreID, t) {
		return
	}
	k.preempt(coreID, true)
}

// chaosClone asks the injector whether to force a clone at this
// boundary and performs it, reporting whether it did. The forced
// child behaves exactly like a SysClone child with a kernel-allocated
// virtual-counter table; only its entry PC (the injector's choice)
// and its seed (kernel RNG) differ from what the parent would have
// passed.
func (k *Kernel) chaosClone(coreID int) bool {
	t := k.cur[coreID]
	if t == nil || k.chaos == nil || k.chaos.CloneAfter == nil {
		return false
	}
	entry, ok := k.chaos.CloneAfter(coreID, t)
	if !ok {
		return false
	}
	start := k.cores[coreID].Now
	k.cores[coreID].KernelWork(k.cfg.Costs.Clone)
	k.clone(coreID, t, entry, t.Ctx.Regs[isa.R14], k.rand(), 0)
	if k.metrics != nil {
		k.metrics.CloneCycles.Observe(k.cores[coreID].Now - start)
	}
	return true
}

// chaosKill asks the injector whether to kill the current thread at
// this boundary and, if so, runs the full exit path on it.
func (k *Kernel) chaosKill(coreID int) {
	t := k.cur[coreID]
	if t == nil || k.chaos == nil || k.chaos.KillAfter == nil || !k.chaos.KillAfter(coreID, t) {
		return
	}
	k.Stats.Kills++
	k.exitThread(coreID, t, exitKilled)
}

// probeFold reports one overflow-chunk fold to the checker.
func (k *Kernel) probeFold(coreID int, t *Thread, tc *ThreadCounter, chunk uint64) {
	if k.probes != nil && k.probes.Fold != nil {
		k.probes.Fold(coreID, t, tc, chunk)
	}
}
