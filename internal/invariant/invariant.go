// Package invariant continuously validates the guarantees the LiMiT
// design makes about virtualized counters, using the kernel.Probes
// observation hooks. It is the measuring half of the chaos harness:
// faultinject bends the schedule, this package proves (or disproves)
// that counter values stayed coherent anyway.
//
// Checked invariants:
//
//   - No torn reads: a read sequence that retires its rdpmc and later
//     completes its final add must not have had an overflow fold land
//     on its virtual counter in between — unless the kernel rewound it
//     to restart. The checker arms when the region's first instruction
//     retires, snapshots the counter's fold generation, disarms on
//     rewind, and flags a violation if the sequence completes with the
//     generation changed. With the fixup patch active this never
//     fires; with registration disabled it is exactly the overcount
//     the paper's design exists to prevent.
//   - Rewinds land on region starts: every PC rewind must target the
//     start of the region that contained the interrupted PC.
//   - Virtual counters are monotone: the 64-bit value (user-memory
//     table word + saved hardware value) never decreases across
//     context switches or from switch-out to run end.
//   - Folds conserve counts: the table word equals exactly the sum of
//     chunks the kernel folded into it (FoldInKernel mode).
//   - Per-thread totals sum to the process-wide total reported by
//     limit.ProcessTotal.
//
// The checker observes one process's regions and assumes FoldInKernel
// overflow mode: in SignalUser mode folds happen in a userspace signal
// handler the kernel probes cannot see, and delayed signal delivery
// genuinely tears reads — which is why deployed LiMiT folds in the
// kernel, and why the chaos campaigns run that mode.
package invariant

import (
	"fmt"

	"limitsim/internal/kernel"
	"limitsim/internal/limit"
)

// Violation kinds.
const (
	KindTornRead     = "torn-read"
	KindBadRewind    = "bad-rewind"
	KindNonMonotone  = "non-monotone"
	KindFoldLoss     = "fold-loss"
	KindSumMismatch  = "sum-mismatch"
	KindInvalidState = "invalid-state"
	KindBadInherit   = "bad-inheritance"
	KindBadReap      = "bad-reap"
	KindLeak         = "resource-leak"

	// Tenant-layer oracles (CheckTenants): conservation of per-tenant
	// instruction attribution against the machine total, cross-tenant
	// leakage (a tenant's ledger disagreeing with its own threads'
	// ground truth), and the uncore share-by-cycles policy bounds.
	KindTenantConserve = "tenant-conservation"
	KindTenantLeak     = "tenant-leak"
	KindUncoreShare    = "uncore-share"
)

// Violation is one observed breach of a LiMiT invariant.
type Violation struct {
	TID    int
	Kind   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("tid%d %s: %s", v.TID, v.Kind, v.Detail)
}

// readState tracks one thread's in-flight read sequence; the zero
// value is "no read in flight".
type readState struct {
	armed     bool
	region    kernel.FixupRegion
	tableAddr uint64
	genAt     uint64
}

// maxStored caps how many violations are kept verbatim; the count keeps
// growing past it.
const maxStored = 64

// Checker implements the kernel.Probes hooks. One Checker watches one
// process's read-critical regions for a single machine run; it is not
// safe for concurrent use (the simulator is single-threaded).
type Checker struct {
	regions []kernel.FixupRegion

	gen    map[uint64]uint64 // table word -> fold generation
	folded map[uint64]uint64 // table word -> sum of folded chunks

	// Per-thread state the step and switch-out probes touch on every
	// boundary and switch lives in slices indexed by thread ID, grown
	// on demand and zeroed in place by Reset.
	reads []readState // thread ID -> in-flight read
	// low holds each thread's per-counter floor values (thread ID ->
	// counter idx -> floor). A zero floor is the same as none: no
	// uint64 value is below it.
	low [][]uint64

	// reapVals captures each LiMiT counter's final value (table word +
	// saved remainder) at the moment its thread is reaped — before any
	// later thread recycles the table word, which thread-pool churn
	// does every wave.
	reapVals map[int]map[int]uint64 // thread ID -> counter idx -> value

	violations []Violation
	count      int

	// ReadsCompleted counts read sequences that ran to completion —
	// the denominator for the torn-read rate.
	ReadsCompleted uint64
}

// New builds a checker watching the given read-critical PC ranges
// (typically limit.Emitter.Regions(), which are known even when the
// emitter never registered them with the kernel).
func New(regions [][2]int) *Checker {
	c := &Checker{
		gen:      make(map[uint64]uint64),
		folded:   make(map[uint64]uint64),
		reapVals: make(map[int]map[int]uint64),
	}
	for _, r := range regions {
		c.regions = append(c.regions, kernel.FixupRegion{Start: r[0], End: r[1]})
	}
	return c
}

// Reset clears every observation so the checker can watch a fresh run
// over the same regions, reusing its allocated state — the runner's
// worker pools reset one checker per worker instead of allocating one
// per run. Stored violations are dropped (slice capacity kept); the
// caller must have copied out whatever it wants to keep.
func (c *Checker) Reset() {
	clear(c.gen)
	clear(c.folded)
	clear(c.reads)
	for _, lows := range c.low {
		clear(lows)
	}
	clear(c.reapVals)
	c.violations = c.violations[:0]
	c.count = 0
	c.ReadsCompleted = 0
}

// Probes builds the kernel.Probes hook set.
func (c *Checker) Probes() *kernel.Probes {
	return &kernel.Probes{
		Step:      c.step,
		Fold:      c.fold,
		Rewind:    c.rewind,
		SwitchOut: c.switchOut,
		Clone:     c.clone,
		Reap:      c.reap,
	}
}

// Attach installs the checker's probes on a kernel.
func (c *Checker) Attach(k *kernel.Kernel) { k.SetProbes(c.Probes()) }

// Violations returns the stored violations (capped; see Count).
func (c *Checker) Violations() []Violation { return c.violations }

// Count returns the total number of violations observed, including any
// beyond the storage cap.
func (c *Checker) Count() int { return c.count }

func (c *Checker) report(tid int, kind, format string, args ...any) {
	c.count++
	if len(c.violations) < maxStored {
		c.violations = append(c.violations, Violation{
			TID: tid, Kind: kind, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// step watches instruction retirement for region entry and completion.
func (c *Checker) step(coreID int, t *kernel.Thread, prevPC, pc int) {
	rs := entry(&c.reads, t.ID)
	if rs.armed {
		switch {
		case prevPC == rs.region.End-1 && pc == rs.region.End:
			// The final add retired: the read is complete. Any fold on
			// this virtual counter since the rdpmc retired means the
			// two halves are from different epochs.
			c.ReadsCompleted++
			if g := c.gen[rs.tableAddr]; g != rs.genAt {
				c.report(t.ID, KindTornRead,
					"read over [%d,%d) completed across %d fold(s) without rewind",
					rs.region.Start, rs.region.End, g-rs.genAt)
			}
			rs.armed = false
		case pc < rs.region.Start || pc >= rs.region.End:
			// Left the region without completing (branch out or a
			// rewind observed only via PC). The read was abandoned;
			// nothing to check.
			rs.armed = false
		case pc == rs.region.Start:
			// Back at the start (rewound between probes): re-arm below.
			rs.armed = false
		}
	}
	if !rs.armed {
		for _, r := range c.regions {
			if prevPC == r.Start && pc == r.Start+1 {
				if addr, ok := c.counterAddr(t, r.Start); ok {
					*rs = readState{armed: true, region: r, tableAddr: addr, genAt: c.gen[addr]}
				}
				break
			}
		}
	}
}

// counterAddr resolves the virtual-counter address read by the rdpmc
// at pc, which encodes the counter index as its immediate.
func (c *Checker) counterAddr(t *kernel.Thread, pc int) (uint64, bool) {
	prog := t.Proc.Prog
	if pc < 0 || pc >= len(prog.Instrs) {
		return 0, false
	}
	idx := int(prog.Instrs[pc].Imm)
	cs := t.Counters()
	if idx < 0 || idx >= len(cs) || cs[idx].Kind != kernel.KindLimit || cs[idx].Closed {
		return 0, false
	}
	return cs[idx].TableAddr, true
}

// fold bumps the counter's fold generation and conservation ledger.
func (c *Checker) fold(coreID int, t *kernel.Thread, tc *kernel.ThreadCounter, chunk uint64) {
	c.gen[tc.TableAddr]++
	c.folded[tc.TableAddr] += chunk
}

// rewind validates the fixup's contract: the rewound PC must have been
// inside a registered region and must land exactly on its start. A
// rewind also aborts any in-flight read.
func (c *Checker) rewind(t *kernel.Thread, from, to int) {
	ok := false
	for _, r := range c.regions {
		if r.Contains(from) {
			ok = to == r.Start
			break
		}
	}
	if !ok {
		c.report(t.ID, KindBadRewind, "rewind %d -> %d does not match any region start", from, to)
	}
	if t.ID < len(c.reads) {
		c.reads[t.ID].armed = false
	}
}

// switchOut checks monotonicity of every LiMiT counter at the moment
// its state is fully virtualized.
func (c *Checker) switchOut(coreID int, t *kernel.Thread) {
	c.checkMonotone(t, "switch-out")
}

func (c *Checker) checkMonotone(t *kernel.Thread, when string) {
	lows := entry(&c.low, t.ID)
	for ci, tc := range t.Counters() {
		if tc.Kind != kernel.KindLimit || tc.Closed {
			continue
		}
		cur := t.Proc.Mem.Read64(tc.TableAddr) + tc.Saved
		floor := entry(lows, ci)
		if cur < *floor {
			c.report(t.ID, KindNonMonotone,
				"counter %d went backwards at %s: %d -> %d", ci, when, *floor, cur)
		}
		*floor = cur
	}
}

// entry returns &(*s)[i], growing *s with zero entries as needed.
func entry[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// clone validates counter inheritance at the child's birth: the
// child's table must mirror the parent's open set index for index (or
// be uniformly degraded to flagged perf estimates), and every
// inherited LiMiT counter must start from zero — table word and saved
// remainder both — so child and parent deltas conserve: nothing the
// parent counted leaks into the child.
func (c *Checker) clone(coreID int, parent, child *kernel.Thread, degraded bool) {
	pcs, ccs := parent.Counters(), child.Counters()
	if len(ccs) != len(pcs) {
		c.report(child.ID, KindBadInherit,
			"child has %d counters, parent %d", len(ccs), len(pcs))
		return
	}
	for i, cc := range ccs {
		pc := pcs[i]
		if pc.Closed {
			if !cc.Closed {
				c.report(child.ID, KindBadInherit,
					"counter %d open in child but closed in parent", i)
			}
			continue
		}
		if degraded {
			if cc.Closed && pc.Kind == kernel.KindSample {
				continue // samplers are dropped, not degraded
			}
			if cc.Kind != kernel.KindPerf || !cc.Estimated {
				c.report(child.ID, KindBadInherit,
					"degraded child counter %d is %v estimated=%v, want flagged perf",
					i, cc.Kind, cc.Estimated)
			}
			continue
		}
		if cc.Kind != pc.Kind || cc.Event != pc.Event ||
			cc.CountUser != pc.CountUser || cc.CountKernel != pc.CountKernel {
			c.report(child.ID, KindBadInherit,
				"counter %d configuration does not mirror the parent's", i)
		}
		if cc.Kind != kernel.KindLimit {
			continue
		}
		if v := child.Proc.Mem.Read64(cc.TableAddr); v != 0 || cc.Saved != 0 {
			c.report(child.ID, KindBadInherit,
				"counter %d starts at table=%d saved=%d, want zero", i, v, cc.Saved)
		}
		// The child's table word may recycle a dead thread's (thread-
		// pool churn reuses per-slot words every wave); the kernel just
		// zeroed it, so its fold/conservation ledgers restart too.
		delete(c.gen, cc.TableAddr)
		delete(c.folded, cc.TableAddr)
	}
}

// reap validates reclamation as a thread dies: its values must still
// be monotone, every counter's ledger accounting must have been
// returned, and each live LiMiT counter's final value is captured
// while its table word is still the thread's own.
func (c *Checker) reap(coreID int, t *kernel.Thread) {
	c.checkMonotone(t, "reap")
	for i, tc := range t.Counters() {
		if !tc.Released {
			c.report(t.ID, KindBadReap, "counter %d not released at reap", i)
		}
		if tc.Kind != kernel.KindLimit || tc.Closed {
			continue
		}
		vals := c.reapVals[t.ID]
		if vals == nil {
			vals = make(map[int]uint64)
			c.reapVals[t.ID] = vals
		}
		vals[i] = t.Proc.Mem.Read64(tc.TableAddr) + tc.Saved
	}
}

// ReapValue returns the final value counter idx held at the moment
// thread tid was reaped, if the reap probe observed one.
func (c *Checker) ReapValue(tid, idx int) (uint64, bool) {
	v, ok := c.reapVals[tid][idx]
	return v, ok
}

// CheckLeaks audits the kernel's resource accounting after a run in
// which every thread has exited: anything still outstanding — a pinned
// counter slot, a kernel-allocated virtual-counter word, a fixup-
// region registration — was acquired by some thread and never
// returned, which is exactly the leak class exit-time reclamation
// exists to prevent.
func (c *Checker) CheckLeaks(res kernel.Resources) {
	if res.SlotsInUse != 0 {
		c.report(0, KindLeak,
			"%d counter slot(s) never returned (peak %d, capacity %d, denials %d)",
			res.SlotsInUse, res.SlotsPeak, res.SlotCapacity, res.SlotDenials)
	}
	if res.TableWordsInUse != 0 {
		c.report(0, KindLeak,
			"%d kernel-allocated virtual-counter word(s) never returned (peak %d)",
			res.TableWordsInUse, res.TableWordsPeak)
	}
	if res.RegionsLive != 0 {
		c.report(0, KindLeak,
			"%d fixup-region registration(s) never dropped (peak %d)",
			res.RegionsLive, res.RegionsPeak)
	}
}

// CheckTenants audits the tenant attribution ledger after a run with
// the guest-scheduler layer active:
//
//   - Conservation: tenant instruction ledgers sum exactly to the
//     machine's user-ring ground truth — the double context switch
//     lost nothing and invented nothing.
//   - No cross-tenant leakage: each tenant's ledger equals the sum of
//     its own threads' true retired-instruction counts, so no tenant
//     was billed for another's work.
//   - Uncore share bounds: the share-by-cycles estimates sum exactly
//     to the socket total and no single estimate exceeds it. (The
//     estimate-vs-truth gap is a reported measurement, not a
//     violation — the policy is approximate by design.)
//
// machineUserInstr is machine.GroundTruthRing(EvInstructions,
// RingUser); uncoreTotal the socket-wide uncore-event count.
func (c *Checker) CheckTenants(accts []kernel.TenantAcct, machineUserInstr, uncoreTotal uint64, threads []*kernel.Thread) {
	if len(accts) == 0 {
		return
	}
	var instrSum, estSum uint64
	perTenant := make([]uint64, len(accts))
	for _, t := range threads {
		tid := t.Tenant
		if tid < 0 || tid >= len(accts) {
			tid = 0 // mirror the kernel's tenantOf clamp
		}
		perTenant[tid] += t.Stats.UserInstructions
	}
	for _, a := range accts {
		instrSum += a.Instructions
		estSum += a.UncoreEst
		if a.Instructions != perTenant[a.ID] {
			c.report(0, KindTenantLeak,
				"tenant %d ledger holds %d user instructions but its threads retired %d",
				a.ID, a.Instructions, perTenant[a.ID])
		}
		if a.UncoreEst > uncoreTotal {
			c.report(0, KindUncoreShare,
				"tenant %d uncore estimate %d exceeds socket total %d",
				a.ID, a.UncoreEst, uncoreTotal)
		}
	}
	if instrSum != machineUserInstr {
		c.report(0, KindTenantConserve,
			"tenant ledgers sum to %d user instructions but the machine retired %d",
			instrSum, machineUserInstr)
	}
	if estSum != uncoreTotal {
		c.report(0, KindUncoreShare,
			"uncore estimates sum to %d but the socket counted %d", estSum, uncoreTotal)
	}
}

// Finalize runs the end-of-run checks for one process: final
// monotonicity, fold conservation, and the per-thread-sum identity
// behind limit.ProcessTotal. Call it after the machine run completes.
func (c *Checker) Finalize(proc *kernel.Process, threads []*kernel.Thread, counterIdx int) {
	var sum uint64
	counted := 0
	for _, t := range threads {
		if t.Proc != proc {
			continue
		}
		cs := t.Counters()
		if counterIdx >= len(cs) || cs[counterIdx].Kind != kernel.KindLimit || cs[counterIdx].Closed {
			continue
		}
		c.checkMonotone(t, "finalize")
		tc := cs[counterIdx]
		virt := proc.Mem.Read64(tc.TableAddr)
		if folded := c.folded[tc.TableAddr]; virt != folded {
			c.report(t.ID, KindFoldLoss,
				"counter %d virtual word holds %d but kernel folded %d", counterIdx, virt, folded)
		}
		v, err := limit.FinalValue(t, counterIdx)
		if err != nil {
			c.report(t.ID, KindInvalidState, "final value: %v", err)
			continue
		}
		sum += v
		counted++
	}
	if counted == 0 {
		return
	}
	total, err := limit.ProcessTotal(proc, threads, counterIdx)
	if err != nil {
		c.report(0, KindInvalidState, "process total: %v", err)
		return
	}
	if total != sum {
		c.report(0, KindSumMismatch,
			"per-thread final values sum to %d but ProcessTotal reports %d", sum, total)
	}
}
