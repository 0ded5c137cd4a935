package invariant

import (
	"strings"
	"testing"

	"limitsim/internal/kernel"
)

// countKind tallies stored violations of one kind.
func countKind(c *Checker, kind string) int {
	n := 0
	for _, v := range c.Violations() {
		if v.Kind == kind {
			n++
		}
	}
	return n
}

// TestCheckLeaksSyntheticSlot feeds the leak oracle a synthetic ledger
// with one unreclaimed counter slot: exactly one resource-leak
// violation, naming the slot ledger, nothing else.
func TestCheckLeaksSyntheticSlot(t *testing.T) {
	c := New(nil)
	c.CheckLeaks(kernel.Resources{
		SlotsInUse:   1,
		SlotsPeak:    3,
		SlotCapacity: 8,
	})
	if c.Count() != 1 {
		t.Fatalf("got %d violations, want exactly 1: %v", c.Count(), c.Violations())
	}
	v := c.Violations()[0]
	if v.Kind != KindLeak {
		t.Fatalf("violation kind %q, want %q", v.Kind, KindLeak)
	}
	if !strings.Contains(v.Detail, "slot") {
		t.Errorf("leak detail %q does not name the slot ledger", v.Detail)
	}
}

// TestCheckLeaksEachLedger: every outstanding ledger — slots, kernel
// table words, fixup regions — reports independently, and a clean
// ledger reports nothing.
func TestCheckLeaksEachLedger(t *testing.T) {
	c := New(nil)
	c.CheckLeaks(kernel.Resources{})
	if c.Count() != 0 {
		t.Fatalf("clean resources produced %d violations: %v", c.Count(), c.Violations())
	}
	c.CheckLeaks(kernel.Resources{
		SlotsInUse:      2,
		TableWordsInUse: 1,
		RegionsLive:     4,
	})
	if got := countKind(c, KindLeak); got != 3 {
		t.Fatalf("three leaking ledgers produced %d leak violations: %v", got, c.Violations())
	}
}

// tenantFixture builds a consistent two-tenant accounting snapshot:
// threads whose retired instructions match the ledgers, estimates that
// sum to the socket total.
func tenantFixture() (accts []kernel.TenantAcct, machineInstr, uncoreTotal uint64, threads []*kernel.Thread) {
	t0 := &kernel.Thread{Tenant: 0}
	t0.Stats.UserInstructions = 600
	t1 := &kernel.Thread{Tenant: 1}
	t1.Stats.UserInstructions = 400
	accts = []kernel.TenantAcct{
		{ID: 0, TenantLedger: kernel.TenantLedger{Instructions: 600, Cycles: 3000, Uncore: 55}, UncoreEst: 60},
		{ID: 1, TenantLedger: kernel.TenantLedger{Instructions: 400, Cycles: 2000, Uncore: 45}, UncoreEst: 40},
	}
	return accts, 1000, 100, []*kernel.Thread{t0, t1}
}

// TestCheckTenantsClean: a consistent snapshot produces no violations —
// including a nonzero estimate-vs-truth gap, which is a measurement,
// not a breach.
func TestCheckTenantsClean(t *testing.T) {
	c := New(nil)
	c.CheckTenants(tenantFixture())
	if c.Count() != 0 {
		t.Fatalf("clean tenant snapshot produced violations: %v", c.Violations())
	}
}

// TestCheckTenantsConservation: ledgers that do not sum to the machine
// total trip the conservation oracle.
func TestCheckTenantsConservation(t *testing.T) {
	accts, _, uncore, threads := tenantFixture()
	c := New(nil)
	c.CheckTenants(accts, 1001, uncore, threads)
	if countKind(c, KindTenantConserve) != 1 {
		t.Fatalf("off-by-one machine total did not trip conservation: %v", c.Violations())
	}
}

// TestCheckTenantsLeakage: a ledger that disagrees with its own
// threads' ground truth is cross-tenant leakage, even when the global
// sum still conserves.
func TestCheckTenantsLeakage(t *testing.T) {
	accts, machineInstr, uncore, threads := tenantFixture()
	// Shift 50 instructions from tenant 0's ledger to tenant 1's: the
	// global sum is untouched, the per-tenant attribution is wrong.
	accts[0].Instructions -= 50
	accts[1].Instructions += 50
	c := New(nil)
	c.CheckTenants(accts, machineInstr, uncore, threads)
	if got := countKind(c, KindTenantLeak); got != 2 {
		t.Fatalf("cross-tenant shift produced %d leak violations, want 2: %v", got, c.Violations())
	}
	if countKind(c, KindTenantConserve) != 0 {
		t.Errorf("conserving shift tripped the conservation oracle: %v", c.Violations())
	}
}

// TestCheckTenantsUncoreBounds: estimates that fail to sum to the
// socket total, or that individually exceed it, trip the share oracle.
func TestCheckTenantsUncoreBounds(t *testing.T) {
	accts, machineInstr, uncore, threads := tenantFixture()
	accts[0].UncoreEst = 70 // sum is now 110 != 100
	c := New(nil)
	c.CheckTenants(accts, machineInstr, uncore, threads)
	if countKind(c, KindUncoreShare) != 1 {
		t.Fatalf("non-conserving estimates did not trip the share oracle: %v", c.Violations())
	}

	accts, machineInstr, uncore, threads = tenantFixture()
	accts[0].UncoreEst = 160 // exceeds the socket total outright
	accts[1].UncoreEst = 40
	c = New(nil)
	c.CheckTenants(accts, machineInstr, uncore, threads)
	if countKind(c, KindUncoreShare) < 2 { // per-tenant bound + sum
		t.Fatalf("over-total estimate tripped %d share violations, want >= 2: %v",
			countKind(c, KindUncoreShare), c.Violations())
	}
}

// TestCheckTenantsClampsUntagged mirrors the kernel's tenantOf clamp:
// a thread with an out-of-range tenant tag counts toward tenant 0, so
// a snapshot built under that rule stays clean.
func TestCheckTenantsClampsUntagged(t *testing.T) {
	stray := &kernel.Thread{Tenant: -7}
	stray.Stats.UserInstructions = 25
	owned := &kernel.Thread{Tenant: 0}
	owned.Stats.UserInstructions = 75
	accts := []kernel.TenantAcct{{ID: 0, TenantLedger: kernel.TenantLedger{Instructions: 100}}, {ID: 1}}
	c := New(nil)
	c.CheckTenants(accts, 100, 0, []*kernel.Thread{stray, owned})
	if c.Count() != 0 {
		t.Fatalf("clamped stray thread produced violations: %v", c.Violations())
	}
}

// TestCheckTenantsEmpty: no tenant layer, no oracle.
func TestCheckTenantsEmpty(t *testing.T) {
	c := New(nil)
	c.CheckTenants(nil, 12345, 678, nil)
	if c.Count() != 0 {
		t.Fatalf("empty snapshot produced violations: %v", c.Violations())
	}
}
