// Package faultinject deterministically injects adversarial schedules
// and interrupt timings into a running kernel through the kernel.Chaos
// hook set. It exists to attack the guarantee at the heart of the
// reproduced paper: that LiMiT's multi-instruction counter read
// sequence survives arbitrary preemption, migration and overflow
// folding without ever combining inconsistent halves.
//
// Every decision the injector makes comes from its own seeded xorshift
// generator, called at deterministic points of the simulation's event
// loop — so a campaign run is exactly replayable: same seed, same
// config, same faults, same outcome, bit for bit. That turns "we ran
// it under stress and nothing broke" into a checkable statement.
//
// The faults on offer:
//
//   - forced preemption at every instruction boundary inside the
//     registered read-critical regions (budgeted per region pass so a
//     rewinding thread cannot livelock);
//   - random preemption outside regions with probability 1/PreemptEvery;
//   - spurious overflow interrupts for counters that did not overflow;
//   - delayed and coalesced overflow interrupts: real PMI bits are
//     withheld for DelayBoundaries instruction boundaries (merging with
//     any that arrive meanwhile) before being serviced in one batch,
//     and are force-drained when the thread leaves the core so they are
//     never misattributed;
//   - migration storms: every enqueue lands on a random core;
//   - signal-delivery delays;
//   - TLB + full-cache flush storms.
//
// Narrowed counter widths — the remaining fault in the chaos matrix —
// are a PMU feature (pmu.Features.WriteWidth), configured by the
// campaign driver rather than injected here.
package faultinject

import (
	"math/bits"

	"limitsim/internal/kernel"
)

// Config selects which faults to inject and how hard.
type Config struct {
	// Seed drives the injector's private RNG.
	Seed uint64

	// PreemptInRegions forces a preemption after every instruction
	// boundary whose PC lies inside a registered region, up to
	// RegionBudget consecutive preemptions per region pass.
	PreemptInRegions bool
	// RegionBudget caps consecutive forced preemptions while a thread
	// stays inside regions; it refills whenever the thread executes
	// outside all regions. Without the cap, fixup rewind plus
	// preempt-on-every-boundary is a livelock. Default 8.
	RegionBudget int
	// PreemptEvery, when >0, randomly preempts a thread outside
	// regions with probability 1/PreemptEvery per boundary.
	PreemptEvery uint64

	// SpuriousPMIEvery, when >0, injects a spurious overflow interrupt
	// for a random hardware slot with probability 1/SpuriousPMIEvery
	// per boundary.
	SpuriousPMIEvery uint64
	// NumSlots is the PMU slot count spurious bits are drawn from
	// (default 4).
	NumSlots int

	// DelayPMI withholds real overflow interrupts for DelayBoundaries
	// instruction boundaries, coalescing any that arrive meanwhile.
	DelayPMI bool
	// DelayBoundaries is the withholding window (default 3).
	DelayBoundaries int

	// MigrationStorm redirects every enqueue to a random core.
	MigrationStorm bool

	// SignalDelayBoundaries, when >0, holds pending-signal delivery
	// for that many boundaries each time a signal becomes deliverable.
	SignalDelayBoundaries int

	// FlushEvery, when >0, flushes the executing core's TLB and entire
	// cache hierarchy with probability 1/FlushEvery per boundary.
	FlushEvery uint64

	// KillEvery, when >0, asynchronously kills the executing thread
	// with probability 1/KillEvery per boundary, exercising the full
	// exit/reclamation path at arbitrary points — including mid-read-
	// sequence.
	KillEvery uint64
	// KillClonesOnly restricts random kills to threads that were
	// cloned (ClonedFrom >= 0), so a storm cannot take down the
	// workload's root threads and stall the campaign.
	KillClonesOnly bool

	// CloneEvery, when >0, forces the executing thread to clone a
	// child at CloneEntry with probability 1/CloneEvery per boundary,
	// stressing counter inheritance and slot churn.
	CloneEvery uint64
	// CloneEntry is the program PC forced children start at. The
	// campaign points it at a short self-exiting stub.
	CloneEntry int
	// CloneBudget caps the total number of forced clones per run so a
	// storm terminates (default 64).
	CloneBudget int

	// VCpuPreemptInRegions forces a tenant-level (vCPU) preemption
	// after every instruction boundary inside a registered region, up
	// to RegionBudget consecutive preemptions per region pass (its own
	// budget, separate from the thread-level one) — the double context
	// switch landing exactly where it can tear a read. Requires the
	// kernel's tenant layer; the hook is a no-op otherwise.
	VCpuPreemptInRegions bool
	// VCpuPreemptEvery, when >0, forces a vCPU preemption outside
	// regions with probability 1/VCpuPreemptEvery per boundary.
	VCpuPreemptEvery uint64
}

// Stats counts every fault the injector actually delivered.
type Stats struct {
	ForcedPreemptions uint64 // inside regions (budgeted) and one-shot arms
	RandomPreemptions uint64 // outside regions
	SpuriousPMIs      uint64
	DelayedPMIs       uint64 // overflow bits withheld at least one boundary
	ReleasedPMIs      uint64 // withheld bits released by window expiry
	DrainedPMIs       uint64 // withheld bits force-drained at deschedule
	Migrations        uint64 // enqueues redirected off the default core
	HeldSignals       uint64 // boundaries at which delivery was deferred
	Flushes           uint64
	Kills             uint64 // asynchronous thread kills delivered
	ForcedClones      uint64 // clone-storm children forced into existence
	VCpuPreemptions   uint64 // tenant-level (vCPU) preemptions forced
}

// Add accumulates another run's stats into s (campaign roll-ups).
func (s *Stats) Add(o Stats) {
	s.ForcedPreemptions += o.ForcedPreemptions
	s.RandomPreemptions += o.RandomPreemptions
	s.SpuriousPMIs += o.SpuriousPMIs
	s.DelayedPMIs += o.DelayedPMIs
	s.ReleasedPMIs += o.ReleasedPMIs
	s.DrainedPMIs += o.DrainedPMIs
	s.Migrations += o.Migrations
	s.HeldSignals += o.HeldSignals
	s.Flushes += o.Flushes
	s.Kills += o.Kills
	s.ForcedClones += o.ForcedClones
	s.VCpuPreemptions += o.VCpuPreemptions
}

// Total sums every delivered fault.
func (s Stats) Total() uint64 {
	return s.ForcedPreemptions + s.RandomPreemptions + s.SpuriousPMIs +
		s.DelayedPMIs + s.Migrations + s.HeldSignals + s.Flushes +
		s.Kills + s.ForcedClones + s.VCpuPreemptions
}

// pmiStash is one core's withheld overflow bits.
type pmiStash struct {
	mask uint64
	age  int
}

// Injector implements the kernel.Chaos hooks for one machine run.
// It is not safe for concurrent use; the simulator is single-threaded.
type Injector struct {
	cfg     Config
	rng     uint64
	nCores  int
	regions []kernel.FixupRegion

	// Per-thread and per-core state is touched at every instruction
	// boundary, so it lives in slices indexed by thread ID (core ID for
	// stash) that grow on demand; a zero entry means "never seen" or
	// "cleared", and Reset zeroes them in place. The budgets count the
	// forced preemptions spent in the current region pass, so a zero
	// entry is a full budget.
	spent   []int // thread ID -> in-region preemptions spent this pass
	vspent  []int // thread ID -> in-region vCPU preemptions spent this pass
	stash   []pmiStash
	sigHold []int // thread ID -> remaining hold boundaries, 0 = no window
	armPC   int   // one-shot preemption trigger, -1 when unarmed

	armKillPC   int // one-shot kill trigger, -1 when unarmed
	armClonePC  int // one-shot clone trigger, -1 when unarmed
	armCloneEnt int // entry PC for the one-shot forced clone
	clonesLeft  int // remaining forced-clone budget

	Stats Stats
}

// New builds an injector. Zero-valued knobs take the documented
// defaults; a zero Config injects nothing.
func New(cfg Config) *Injector {
	inj := &Injector{nCores: 1}
	inj.Reset(cfg)
	return inj
}

// Reset reinitializes the injector for a fresh run under cfg, reusing
// its allocated state — the runner's worker pools reset one injector
// per worker (with a new per-run seed) instead of allocating one per
// run. Regions and the core count survive a Reset; stats do not.
func (inj *Injector) Reset(cfg Config) {
	if cfg.RegionBudget <= 0 {
		cfg.RegionBudget = 8
	}
	if cfg.DelayBoundaries <= 0 {
		cfg.DelayBoundaries = 3
	}
	if cfg.NumSlots <= 0 {
		cfg.NumSlots = 4
	}
	if cfg.CloneBudget <= 0 {
		cfg.CloneBudget = 64
	}
	inj.cfg = cfg
	inj.rng = cfg.Seed ^ 0xbadc0ffee0ddf00d
	clear(inj.spent)
	clear(inj.vspent)
	clear(inj.stash)
	clear(inj.sigHold)
	inj.armPC = -1
	inj.armKillPC = -1
	inj.armClonePC = -1
	inj.armCloneEnt = -1
	inj.clonesLeft = cfg.CloneBudget
	inj.Stats = Stats{}
}

// SetRegions tells the injector which PC ranges are read-critical.
// They are passed explicitly (rather than read from the process) so
// chaos targeting still works when fixup *registration* is disabled —
// the ablation where the kernel no longer knows the regions but the
// injector must still attack them.
func (in *Injector) SetRegions(regions [][2]int) {
	in.regions = in.regions[:0]
	for _, r := range regions {
		in.regions = append(in.regions, kernel.FixupRegion{Start: r[0], End: r[1]})
	}
}

// SetCores tells the injector how many cores migration storms may
// scatter across.
func (in *Injector) SetCores(n int) {
	if n > 0 {
		in.nCores = n
	}
}

// ArmPreemptAt arms a one-shot forced preemption: the next time any
// thread is at PC pc after retiring an instruction, it is preempted
// once. Used by the exhaustive preemption sweep.
func (in *Injector) ArmPreemptAt(pc int) { in.armPC = pc }

// Armed reports whether a one-shot preemption is still pending.
func (in *Injector) Armed() bool { return in.armPC >= 0 }

// ArmKillAt arms a one-shot asynchronous kill: the next time any
// thread is at PC pc after retiring an instruction, it is killed.
// Arm before Attach — Hooks snapshots which hooks to install. Used
// by the exhaustive exit-at-every-boundary sweep.
func (in *Injector) ArmKillAt(pc int) { in.armKillPC = pc }

// KillArmed reports whether a one-shot kill is still pending.
func (in *Injector) KillArmed() bool { return in.armKillPC >= 0 }

// ArmCloneAt arms a one-shot forced clone: the next time any thread
// is at PC pc after retiring an instruction, it clones a child at
// entry. Arm before Attach. Used by the clone-at-every-boundary
// sweep.
func (in *Injector) ArmCloneAt(pc, entry int) {
	in.armClonePC = pc
	in.armCloneEnt = entry
}

// CloneArmed reports whether a one-shot clone is still pending.
func (in *Injector) CloneArmed() bool { return in.armClonePC >= 0 }

// Hooks builds the kernel.Chaos hook set. Only hooks with active
// configuration are installed, so an idle fault class costs nil checks
// and nothing else.
func (in *Injector) Hooks() *kernel.Chaos {
	c := &kernel.Chaos{}
	// PreemptAfter doubles as the per-boundary bookkeeping point for
	// the region budget, so it is installed whenever forced preemption
	// in any form can happen.
	c.PreemptAfter = in.preemptAfter
	if in.cfg.SpuriousPMIEvery > 0 || in.cfg.DelayPMI {
		c.FilterPMI = in.filterPMI
		c.DrainPMI = in.drainPMI
	}
	if in.cfg.MigrationStorm {
		c.Place = in.place
	}
	if in.cfg.SignalDelayBoundaries > 0 {
		c.HoldSignal = in.holdSignal
	}
	if in.cfg.FlushEvery > 0 {
		c.FlushAfter = in.flushAfter
	}
	if in.cfg.KillEvery > 0 || in.armKillPC >= 0 {
		c.KillAfter = in.killAfter
	}
	if in.cfg.CloneEvery > 0 || in.armClonePC >= 0 {
		c.CloneAfter = in.cloneAfter
	}
	if in.cfg.VCpuPreemptInRegions || in.cfg.VCpuPreemptEvery > 0 {
		c.VCpuPreemptAfter = in.vcpuPreemptAfter
	}
	return c
}

// Attach installs the injector's hooks on a kernel.
func (in *Injector) Attach(k *kernel.Kernel) { k.SetChaos(in.Hooks()) }

func (in *Injector) rand() uint64 {
	x := in.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.rng = x
	return x * 0x2545f4914f6cdd1d
}

// chance rolls a 1-in-n event; n == 0 never fires.
func (in *Injector) chance(n uint64) bool {
	return n > 0 && in.rand()%n == 0
}

func (in *Injector) inRegion(pc int) bool {
	for _, r := range in.regions {
		if r.Contains(pc) {
			return true
		}
	}
	return false
}

// entry returns &(*s)[i], growing *s with zero entries as needed.
func entry[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

func (in *Injector) preemptAfter(coreID int, t *kernel.Thread) bool {
	pc := t.Ctx.PC
	if in.armPC >= 0 && pc == in.armPC {
		in.armPC = -1
		in.Stats.ForcedPreemptions++
		return true
	}
	spent := entry(&in.spent, t.ID)
	if !in.inRegion(pc) {
		// Out of harm's way: refill the in-region budget and maybe
		// land a random preemption.
		*spent = 0
		if in.chance(in.cfg.PreemptEvery) {
			in.Stats.RandomPreemptions++
			return true
		}
		return false
	}
	if !in.cfg.PreemptInRegions || *spent >= in.cfg.RegionBudget {
		// Budget spent: let the read complete so the fixup's rewind
		// cannot livelock the thread.
		return false
	}
	*spent++
	in.Stats.ForcedPreemptions++
	return true
}

// vcpuPreemptAfter mirrors preemptAfter at the tenant level: budgeted
// double-switch storms inside read-critical regions, random vCPU
// preemptions outside them. A separate budget keeps the two storm
// classes independently capped, so combining them cannot livelock a
// rewinding thread.
func (in *Injector) vcpuPreemptAfter(coreID int, t *kernel.Thread) bool {
	spent := entry(&in.vspent, t.ID)
	if !in.inRegion(t.Ctx.PC) {
		*spent = 0
		if in.chance(in.cfg.VCpuPreemptEvery) {
			in.Stats.VCpuPreemptions++
			return true
		}
		return false
	}
	if !in.cfg.VCpuPreemptInRegions || *spent >= in.cfg.RegionBudget {
		return false
	}
	*spent++
	in.Stats.VCpuPreemptions++
	return true
}

func (in *Injector) filterPMI(coreID int, t *kernel.Thread, mask uint64) uint64 {
	st := entry(&in.stash, coreID)
	if in.cfg.DelayPMI && mask != 0 {
		in.Stats.DelayedPMIs += uint64(bits.OnesCount64(mask))
		st.mask |= mask
		mask = 0
	}
	if st.mask != 0 {
		st.age++
		if st.age >= in.cfg.DelayBoundaries {
			// Window expired: release everything withheld in one
			// coalesced batch.
			in.Stats.ReleasedPMIs += uint64(bits.OnesCount64(st.mask))
			mask |= st.mask
			st.mask, st.age = 0, 0
		}
	}
	if in.chance(in.cfg.SpuriousPMIEvery) {
		mask |= 1 << (in.rand() % uint64(in.cfg.NumSlots))
		in.Stats.SpuriousPMIs++
	}
	return mask
}

func (in *Injector) drainPMI(coreID int, t *kernel.Thread) uint64 {
	if coreID >= len(in.stash) || in.stash[coreID].mask == 0 {
		return 0
	}
	st := &in.stash[coreID]
	mask := st.mask
	st.mask, st.age = 0, 0
	in.Stats.DrainedPMIs += uint64(bits.OnesCount64(mask))
	return mask
}

func (in *Injector) place(t *kernel.Thread, def int) int {
	if in.nCores <= 1 {
		return def
	}
	core := int(in.rand() % uint64(in.nCores))
	if core != def {
		in.Stats.Migrations++
	}
	return core
}

func (in *Injector) holdSignal(coreID int, t *kernel.Thread) bool {
	left := entry(&in.sigHold, t.ID)
	switch {
	case *left == 0:
		// A signal just became deliverable; start a hold window. Every
		// window holds at least one boundary.
		*left = max(in.cfg.SignalDelayBoundaries, 1)
	case *left == 1:
		// Window over: deliver, and re-arm for the next signal.
		*left = 0
		return false
	default:
		*left--
	}
	in.Stats.HeldSignals++
	return true
}

func (in *Injector) flushAfter(coreID int, t *kernel.Thread) bool {
	if in.chance(in.cfg.FlushEvery) {
		in.Stats.Flushes++
		return true
	}
	return false
}

func (in *Injector) killAfter(coreID int, t *kernel.Thread) bool {
	if in.armKillPC >= 0 {
		if t.Ctx.PC != in.armKillPC {
			return false
		}
		in.armKillPC = -1
		in.Stats.Kills++
		return true
	}
	if in.cfg.KillClonesOnly && t.ClonedFrom < 0 {
		return false
	}
	if in.chance(in.cfg.KillEvery) {
		in.Stats.Kills++
		return true
	}
	return false
}

func (in *Injector) cloneAfter(coreID int, t *kernel.Thread) (int, bool) {
	if in.armClonePC >= 0 {
		if t.Ctx.PC != in.armClonePC {
			return 0, false
		}
		entry := in.armCloneEnt
		in.armClonePC, in.armCloneEnt = -1, -1
		in.Stats.ForcedClones++
		return entry, true
	}
	if in.clonesLeft <= 0 {
		return 0, false
	}
	if in.chance(in.cfg.CloneEvery) {
		in.clonesLeft--
		in.Stats.ForcedClones++
		return in.cfg.CloneEntry, true
	}
	return 0, false
}
