package kernel

import (
	"math/bits"

	"limitsim/internal/pmu"
	"limitsim/internal/trace"
)

// Tenant scheduling: a guest-scheduler ("vCPU") layer above the thread
// scheduler, modeling N tenant VMs time-sharing the cores. Each core
// has at most one *resident* tenant at a time; running a thread of a
// different tenant first performs a vCPU switch — the second level of
// the double context switch the paper's single-host design never
// faces. The LiMiT fixup must keep userspace read sequences atomic
// across both levels: a vCPU preemption goes through the same
// deschedule path (PMI drain, PC rewind, counter save) as a thread
// preemption, so the rewind window extends across the extra level for
// free — and the chaos/invariant stack proves it rather than assuming
// it.
//
// Attribution: the layer keeps a per-tenant ledger of ground-truth
// user-ring instructions, resident cycles (all rings) and uncore
// events, accumulated per residency span from the per-core omniscient
// counts. User instructions only ever retire under an open span (a
// thread runs only after switchTo, which establishes residency), so
// tenant instruction sums conserve exactly against the machine total.
// vCPU-switch overhead is charged *between* spans and stays
// unattributed host work by design.
//
// Uncore attribution policy: a socket-level counter cannot be saved or
// restored per thread, so per-tenant shares of the socket total (the
// per-core ground truth summed) are estimated by
// share-of-resident-cycles — tenant i gets
//
//	est_i = floor(total * cycles_i / Σcycles)
//
// with the remainder distributed by largest fractional part (ties to
// the lowest tenant id), so Σ est_i == total exactly. The per-core
// ground truth gives the *true* per-tenant split, which the harness
// reports as the policy's measured attribution error.

// uncoreEvent is the event the uncore attribution policy divides among
// tenants: LLC misses, the canonical shared-resource event.
const uncoreEvent = pmu.EvLLCMiss

// TenantLedger is one tenant's attribution record.
type TenantLedger struct {
	// Instructions is the tenant's true user-ring retired-instruction
	// total, summed over its residency spans.
	Instructions uint64
	// Cycles is core time (all rings) spent while the tenant was
	// resident.
	Cycles uint64
	// Uncore is the tenant's *true* uncore-event total (per-core ground
	// truth summed over residency spans) — the baseline the
	// share-by-cycles estimate is judged against.
	Uncore uint64

	// Preempts counts vCPU preemptions (quantum expiry or chaos),
	// Resumes counts residency establishments, Migrations counts
	// cross-core vCPU moves and thread re-placements onto the
	// resident core.
	Preempts   uint64
	Resumes    uint64
	Migrations uint64
}

// tenantSnap is the per-core ground-truth snapshot taken when a
// residency span opens; span deltas accrue to the resident tenant.
type tenantSnap struct {
	instr  uint64
	cycles uint64
	uncore uint64
}

// tenantSched is the guest-scheduler state (nil when Config.Tenants
// <= 1, costing existing paths nothing).
type tenantSched struct {
	n       int
	quantum uint64
	vcpus   int // per-tenant residency cap (0: unbounded)

	resident   []int        // per core: resident tenant (-1 none)
	quantumEnd []uint64     // per core: tenant-quantum deadline
	base       []tenantSnap // per core: span-open snapshot
	resCount   []int        // per tenant: cores currently resident
	lastCore   []int        // per tenant: last core resumed on (-1 never)
	led        []TenantLedger
}

func newTenantSched(cfg Config, nCores int) *tenantSched {
	ts := &tenantSched{
		n:          cfg.Tenants,
		quantum:    cfg.TenantQuantum,
		vcpus:      cfg.VCPUs,
		resident:   make([]int, nCores),
		quantumEnd: make([]uint64, nCores),
		base:       make([]tenantSnap, nCores),
		resCount:   make([]int, cfg.Tenants),
		lastCore:   make([]int, cfg.Tenants),
		led:        make([]TenantLedger, cfg.Tenants),
	}
	if ts.quantum == 0 {
		ts.quantum = 3 * cfg.Quantum
	}
	for i := range ts.resident {
		ts.resident[i] = -1
	}
	for i := range ts.lastCore {
		ts.lastCore[i] = -1
	}
	return ts
}

// tenantOf maps a thread to a valid tenant id (out-of-range tags fall
// back to tenant 0, so untagged threads are owned, never leaked).
func (ts *tenantSched) tenantOf(t *Thread) int {
	if t.Tenant < 0 || t.Tenant >= ts.n {
		return 0
	}
	return t.Tenant
}

// snap captures a core's ground-truth counters.
func (ts *tenantSched) snap(k *Kernel, coreID int) tenantSnap {
	p := k.cores[coreID].PMU
	return tenantSnap{
		instr:  p.GroundTruth(pmu.EvInstructions, pmu.RingUser),
		cycles: p.GroundTruthTotal(pmu.EvCycles),
		uncore: p.GroundTruthTotal(uncoreEvent),
	}
}

// closeSpan folds the open residency span on coreID into the resident
// tenant's ledger.
func (ts *tenantSched) closeSpan(k *Kernel, coreID int) {
	tid := ts.resident[coreID]
	if tid < 0 {
		return
	}
	now := ts.snap(k, coreID)
	b := ts.base[coreID]
	di, dc, du := now.instr-b.instr, now.cycles-b.cycles, now.uncore-b.uncore
	led := &ts.led[tid]
	led.Instructions += di
	led.Cycles += dc
	led.Uncore += du
	ts.base[coreID] = now
}

// tenantEnsure makes tid resident on coreID, performing the vCPU half
// of the double context switch when a different tenant held the core.
// It is called from switchTo — the single choke point every thread
// takes onto a core — so the invariant "the current thread's tenant is
// the resident tenant" holds everywhere.
func (k *Kernel) tenantEnsure(coreID, tid int) {
	ts := k.ts
	core := k.cores[coreID]
	if ts.resident[coreID] == tid {
		if core.Now >= ts.quantumEnd[coreID] {
			ts.quantumEnd[coreID] = core.Now + ts.quantum
		}
		return
	}
	if old := ts.resident[coreID]; old >= 0 {
		ts.closeSpan(k, coreID)
		ts.resCount[old]--
		ts.resident[coreID] = -1
	}
	// The vCPU switch itself is host work between spans: charged in the
	// kernel ring, attributed to no tenant.
	core.KernelWork(k.cfg.Costs.VCpuSwitch)
	led := &ts.led[tid]
	if ts.lastCore[tid] >= 0 && ts.lastCore[tid] != coreID {
		led.Migrations++
		k.Stats.VCpuMigrations++
		k.tr(coreID, nil, trace.VCpuMigrate, uint64(tid))
	}
	led.Resumes++
	ts.lastCore[tid] = coreID
	ts.resident[coreID] = tid
	ts.resCount[tid]++
	ts.base[coreID] = ts.snap(k, coreID)
	ts.quantumEnd[coreID] = core.Now + ts.quantum
	k.Stats.VCpuSwitches++
	k.tr(coreID, nil, trace.VCpuResume, uint64(tid))
}

// tenantTick rotates an expired tenant quantum: when the resident
// tenant's slice is up and another tenant has a ready thread waiting
// on this core, the current thread takes a vCPU preemption — the
// double context switch in full, wherever its PC happens to be.
func (k *Kernel) tenantTick(coreID int) {
	ts := k.ts
	if ts == nil {
		return
	}
	t := k.cur[coreID]
	if t == nil {
		return
	}
	core := k.cores[coreID]
	if core.Now < ts.quantumEnd[coreID] {
		return
	}
	tid := ts.tenantOf(t)
	waiting := false
	for _, r := range k.runq[coreID] {
		if r.ReadyAt <= core.Now && ts.tenantOf(r) != tid {
			waiting = true
			break
		}
	}
	if !waiting {
		// No other tenant contends for this core; let the thread-level
		// scheduler rotate within the tenant.
		ts.quantumEnd[coreID] = core.Now + ts.quantum
		return
	}
	k.vcpuPreempt(coreID, t)
}

// vcpuPreempt forces the current thread off coreID as a tenant-level
// preemption. It rides the ordinary deschedule path — PMI drain, PC
// rewind fixup, counter save — which is exactly the point of the
// exercise: the guest layer adds a second reason to leave the core,
// not a second mechanism.
func (k *Kernel) vcpuPreempt(coreID int, t *Thread) {
	ts := k.ts
	tid := ts.tenantOf(t)
	ts.led[tid].Preempts++
	k.Stats.TenantPreemptions++
	k.tr(coreID, t, trace.VCpuPreempt, uint64(tid))
	k.preempt(coreID, false)
	// Expire the tenant quantum so the next schedule() rotates to the
	// waiting tenant instead of resuming this one.
	ts.quantumEnd[coreID] = 0
}

// chaosVCpuPreempt asks the injector whether to force a vCPU
// preemption at this boundary (tenant layer active only).
func (k *Kernel) chaosVCpuPreempt(coreID int) {
	t := k.cur[coreID]
	if t == nil || k.ts == nil || k.chaos == nil || k.chaos.VCpuPreemptAfter == nil || !k.chaos.VCpuPreemptAfter(coreID, t) {
		return
	}
	k.vcpuPreempt(coreID, t)
}

// tenantMigrate relocates ready threads whose tenant has exhausted its
// vCPU budget elsewhere onto a core where the tenant is already
// resident, keeping the residency cap honest without deadlocking: a
// saturated tenant is by definition resident somewhere, and residency
// only changes through switchTo, so the destination will run the
// migrant.
func (k *Kernel) tenantMigrate(coreID int) {
	ts := k.ts
	if ts.vcpus <= 0 {
		return
	}
	now := k.cores[coreID].Now
	kept := k.runq[coreID][:0]
	for _, t := range k.runq[coreID] {
		tid := ts.tenantOf(t)
		if t.ReadyAt <= now && ts.resident[coreID] != tid && ts.resCount[tid] >= ts.vcpus {
			dst := -1
			for c := range k.cores {
				if ts.resident[c] == tid {
					dst = c
					break
				}
			}
			if dst >= 0 && dst != coreID {
				k.runq[dst] = append(k.runq[dst], t)
				ts.led[tid].Migrations++
				k.Stats.VCpuMigrations++
				k.tr(coreID, t, trace.VCpuMigrate, uint64(tid))
				continue
			}
		}
		kept = append(kept, t)
	}
	k.runq[coreID] = kept
}

// tenantPick selects the next thread index from coreID's queue under
// the tenant policy: within an unexpired quantum the resident tenant's
// threads go first (avoiding needless double switches); otherwise
// tenants rotate round-robin from the one after the resident. Returns
// -1 when nothing is immediately runnable.
func (k *Kernel) tenantPick(coreID int) int {
	ts := k.ts
	core := k.cores[coreID]
	q := k.runq[coreID]
	res := ts.resident[coreID]
	if res >= 0 && core.Now < ts.quantumEnd[coreID] {
		for i, t := range q {
			if t.ReadyAt <= core.Now && ts.tenantOf(t) == res {
				return i
			}
		}
	}
	start := res + 1
	for off := 0; off < ts.n; off++ {
		tid := (start + off) % ts.n
		for i, t := range q {
			if t.ReadyAt <= core.Now && ts.tenantOf(t) == tid {
				return i
			}
		}
	}
	return -1
}

// tenantStealOK reports whether the thief core may steal t under the
// vCPU residency cap (always true when the cap is off).
func (k *Kernel) tenantStealOK(thief int, t *Thread) bool {
	ts := k.ts
	if ts == nil || ts.vcpus <= 0 {
		return true
	}
	tid := ts.tenantOf(t)
	return ts.resident[thief] == tid || ts.resCount[tid] < ts.vcpus
}

// TenantAcct is one tenant's attribution snapshot, including the
// share-by-cycles uncore estimate.
type TenantAcct struct {
	ID int
	TenantLedger
	// UncoreEst is the share-by-cycles policy estimate; estimates over
	// all tenants sum to the socket total exactly.
	UncoreEst uint64
}

// TenantAccts returns the per-tenant attribution snapshot with live
// (still-open) residency spans folded in read-only, and the uncore
// policy estimates applied. Returns nil when the tenant layer is off.
func (k *Kernel) TenantAccts() []TenantAcct {
	ts := k.ts
	if ts == nil {
		return nil
	}
	led := make([]TenantLedger, ts.n)
	copy(led, ts.led)
	for c := range k.cores {
		tid := ts.resident[c]
		if tid < 0 {
			continue
		}
		now := ts.snap(k, c)
		b := ts.base[c]
		led[tid].Instructions += now.instr - b.instr
		led[tid].Cycles += now.cycles - b.cycles
		led[tid].Uncore += now.uncore - b.uncore
	}
	total := k.UncoreTotal()
	var totalCyc uint64
	for i := range led {
		totalCyc += led[i].Cycles
	}
	est := apportion(total, totalCyc, led)
	accts := make([]TenantAcct, ts.n)
	for i := range accts {
		accts[i] = TenantAcct{ID: i, TenantLedger: led[i], UncoreEst: est[i]}
	}
	return accts
}

// UncoreTotal returns the socket-wide uncore-event count the
// attribution policy divides — the denominator oracles and reports
// judge estimates against: the per-core ground truth summed over the
// socket's cores, which is what a shared socket counter fed by every
// core would read. Zero when the tenant layer is off.
func (k *Kernel) UncoreTotal() uint64 {
	if k.ts == nil {
		return 0
	}
	var sum uint64
	for _, c := range k.cores {
		sum += c.PMU.GroundTruthTotal(uncoreEvent)
	}
	return sum
}

// apportion splits total by each tenant's share of totalCyc using
// largest-remainder rounding: floors first (128-bit intermediate, so
// no overflow at any magnitude), then the remainder one unit at a time
// to the largest fractional part, ties to the lowest id. The results
// always sum to total; with zero attributed cycles everything goes to
// tenant 0 (an arbitrary but documented owner of unattributable
// counts).
func apportion(total, totalCyc uint64, led []TenantLedger) []uint64 {
	est := make([]uint64, len(led))
	if total == 0 {
		return est
	}
	if totalCyc == 0 {
		est[0] = total
		return est
	}
	rem := make([]uint64, len(led))
	var assigned uint64
	for i := range led {
		hi, lo := bits.Mul64(total, led[i].Cycles)
		q, r := bits.Div64(hi, lo, totalCyc)
		est[i], rem[i] = q, r
		assigned += q
	}
	for assigned < total {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		est[best]++
		rem[best] = 0
		assigned++
	}
	return est
}
