package kernel

import (
	"fmt"

	"limitsim/internal/telemetry"
)

// Metrics is the kernel's self-measurement surface: cycle-cost
// histograms for the paths the paper cares about (context switches,
// PMI service, thread churn) and counters for the events whose
// frequency determines LiMiT's overhead (fixup rewinds, overflow
// folds, slot pressure, degradations). All are registered on one
// telemetry.Registry so a run's metrics render and merge as a unit.
//
// Counts are kept once, by the kernel itself: Stats, ThreadStats, the
// tenant ledgers and the PMU slot ledgers. The counters and gauges are
// a view of them that PublishMetrics fills when a run ends. Only the
// histograms are observed live, because no other store keeps their
// distributions; each observing path pays one nil check when detached.
// Cycle costs are measured as core-clock deltas around the path
// (KernelWork advances the clock), so they include everything the path
// actually charges — MSR traffic, folds, pollution — not just the base
// cost constant.
type Metrics struct {
	// counters holds one counter per kernelCounts entry, then one per
	// tenantCounts entry for each of tenants tenants.
	counters []*telemetry.Counter
	tenants  int

	// Slot-ledger occupancy: the live level and its high-water mark.
	slotOccupancy *telemetry.Gauge
	tableWords    *telemetry.Gauge

	// Context-switch halves: deschedule (save + fixup + PMI drain) and
	// switch-in (base cost + pollution + counter restore).
	SwitchOutCycles *telemetry.Histogram
	SwitchInCycles  *telemetry.Histogram
	// PMILatency is raise-to-service: from the cycle an overflow
	// interrupt was taken off the PMU to the cycle its slot is serviced.
	// Chaos-delayed interrupts accrue real latency here.
	PMILatency *telemetry.Histogram
	// Thread churn: SysClone/forced-clone cost (inheritance included)
	// and the full exit path (final virtualization + reclamation).
	CloneCycles *telemetry.Histogram
	ExitCycles  *telemetry.Histogram
}

// published names one published counter and the count it reads.
type published[T any] struct {
	name  string
	count func(T) uint64
}

// kernelCounts lists the kernel's published counters in registration
// order.
var kernelCounts = []published[*Kernel]{
	{"kern.syscalls", func(k *Kernel) uint64 { return k.Stats.Syscalls }},
	{"kern.signals.delivered", func(k *Kernel) uint64 { return k.threadSum(func(s *ThreadStats) uint64 { return s.Signals }) }},
	{"kern.pmi.count", func(k *Kernel) uint64 { return k.Stats.PMIs }},
	{"kern.folds", func(k *Kernel) uint64 { return k.Stats.OverflowFolds }},
	// Rewinds taken over rewinds avoided is the paper's "how often does
	// the fixup actually fire" question.
	{"kern.rewinds.taken", func(k *Kernel) uint64 { return k.threadSum(func(s *ThreadStats) uint64 { return s.FixupRewinds }) }},
	{"kern.rewinds.avoided", func(k *Kernel) uint64 { return k.Stats.RewindsAvoided }},
	{"kern.limitopen.again", func(k *Kernel) uint64 { return k.Stats.LimitOpenAgain }},
	{"kern.opens.degraded", func(k *Kernel) uint64 { return k.Stats.DegradedOpens }},
	{"kern.clones.degraded", func(k *Kernel) uint64 { return k.Stats.DegradedClones }},
	{"kern.mux.rotations", func(k *Kernel) uint64 { return k.Stats.MuxRotations }},
	{"kern.mux.frames", func(k *Kernel) uint64 { return uint64(len(k.frames)) }},
	{"pmu.slots.denied", func(k *Kernel) uint64 { return k.slots.Denied() }},
}

// tenantCounts lists each tenant's published counters. Names are
// zero-padded ("tenant.03.vcpu.preempts") and listed alphabetically, so
// with the tenant prefix ascending outside, registration order (which
// is render order) equals canonical sorted order and fleet-mode merges
// of tenant campaigns stay byte-deterministic.
var tenantCounts = []published[*TenantLedger]{
	{"cycles.resident", func(l *TenantLedger) uint64 { return l.Cycles }},
	{"instructions", func(l *TenantLedger) uint64 { return l.Instructions }},
	{"vcpu.migrations", func(l *TenantLedger) uint64 { return l.Migrations }},
	{"vcpu.preempts", func(l *TenantLedger) uint64 { return l.Preempts }},
}

// NewMetrics registers the kernel's metric set on reg — with per-tenant
// counters when tenants > 1 — and returns the handle to attach with
// SetMetrics. Registration order is fixed, so every registry built
// here renders and merges identically.
func NewMetrics(reg *telemetry.Registry, tenants int) *Metrics {
	m := &Metrics{}
	for _, c := range kernelCounts {
		m.counters = append(m.counters, reg.Counter(c.name))
	}
	if tenants > 1 {
		m.tenants = tenants
		for i := 0; i < tenants; i++ {
			for _, c := range tenantCounts {
				m.counters = append(m.counters, reg.Counter(fmt.Sprintf("tenant.%02d.%s", i, c.name)))
			}
		}
	}
	m.slotOccupancy = reg.Gauge("pmu.slots.occupancy")
	m.tableWords = reg.Gauge("pmu.tablewords.occupancy")
	m.SwitchOutCycles = reg.Histogram("kern.switch.out.cycles", nil)
	m.SwitchInCycles = reg.Histogram("kern.switch.in.cycles", nil)
	m.PMILatency = reg.Histogram("kern.pmi.latency.cycles", nil)
	m.CloneCycles = reg.Histogram("kern.clone.cycles", nil)
	m.ExitCycles = reg.Histogram("kern.exit.cycles", nil)
	return m
}

// SetMetrics attaches a metric set built by NewMetrics (nil detaches)
// and allocates the per-core PMI raise marks the latency histogram
// needs. Published counts are the kernel's own totals, so they include
// events from before attach. A metric set registered for a different
// tenant count than the kernel runs is a wiring error and panics.
func (k *Kernel) SetMetrics(m *Metrics) {
	k.metrics = m
	k.pmiRaiseAt = nil
	if m == nil {
		return
	}
	tenants := 0
	if k.ts != nil {
		tenants = k.ts.n
	}
	if m.tenants != tenants {
		panic(fmt.Sprintf("kernel: metrics registered for %d tenants, kernel runs %d", m.tenants, tenants))
	}
	k.pmiRaiseAt = make([][]uint64, len(k.cores))
	for i, c := range k.cores {
		k.pmiRaiseAt[i] = make([]uint64, c.PMU.NumCounters())
	}
}

// PublishMetrics copies the kernel's counts into the attached metric
// set (a no-op when detached); machine.Run calls it when a run ends.
// Each counter moves up to the kernel's total rather than adding it, so
// publishing again after a later Run on the same kernel does not
// double count. Each occupancy gauge takes its ledger's peak, then its
// current level.
func (k *Kernel) PublishMetrics() {
	m := k.metrics
	if m == nil {
		return
	}
	i := 0
	for _, c := range kernelCounts {
		publish(m.counters[i], c.count(k))
		i++
	}
	for t := 0; t < m.tenants; t++ {
		for _, c := range tenantCounts {
			publish(m.counters[i], c.count(&k.ts.led[t]))
			i++
		}
	}
	m.slotOccupancy.Set(int64(k.slots.Peak()))
	m.slotOccupancy.Set(int64(k.slots.InUse()))
	m.tableWords.Set(int64(k.tableWords.Peak()))
	m.tableWords.Set(int64(k.tableWords.InUse()))
}

// publish moves c up to total.
func publish(c *telemetry.Counter, total uint64) { c.Add(total - c.Value()) }

// threadSum totals one per-thread count over every thread the kernel
// has created.
func (k *Kernel) threadSum(count func(*ThreadStats) uint64) uint64 {
	var sum uint64
	for _, t := range k.threads {
		sum += count(&t.Stats)
	}
	return sum
}

// markPMIRaise stamps the raise time for every newly taken overflow
// bit. A slot already carrying a mark keeps the earlier (true) raise
// time; chaos-delayed bits therefore accrue their full latency.
func (k *Kernel) markPMIRaise(coreID int, mask uint64) {
	if k.metrics == nil || mask == 0 {
		return
	}
	now := k.cores[coreID].Now
	marks := k.pmiRaiseAt[coreID]
	for slot := 0; mask != 0 && slot < len(marks); slot, mask = slot+1, mask>>1 {
		if mask&1 == 1 && marks[slot] == 0 {
			marks[slot] = now
		}
	}
}

// observePMIService records raise-to-service latency for every slot in
// mask and clears the marks. Bits with no mark (chaos-injected
// spurious interrupts) are skipped: they were never raised.
func (k *Kernel) observePMIService(coreID int, mask uint64) {
	if k.metrics == nil || mask == 0 {
		return
	}
	now := k.cores[coreID].Now
	marks := k.pmiRaiseAt[coreID]
	for slot := 0; mask != 0 && slot < len(marks); slot, mask = slot+1, mask>>1 {
		if mask&1 == 1 && marks[slot] != 0 {
			k.metrics.PMILatency.Observe(now - marks[slot])
			marks[slot] = 0
		}
	}
}
