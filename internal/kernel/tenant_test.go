package kernel_test

import (
	"bytes"
	"regexp"
	"sort"
	"testing"

	"limitsim/internal/invariant"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/pmu"
	"limitsim/internal/telemetry"
)

// computeLoop emits a self-contained compute loop at a fresh label and
// returns its entry PC.
func computeLoop(b *isa.Builder, name string, iters, k int64) int {
	entry := b.PC()
	b.Label(name)
	b.MovImm(isa.R8, 0)
	b.Label(name + ".loop")
	b.Compute(k)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, iters)
	b.Br(isa.CondLT, isa.R8, isa.R9, name+".loop")
	b.Halt()
	return entry
}

// TestTenantTimeSharing runs two tenants' threads on one core under a
// short tenant quantum: the guest scheduler must rotate them (double
// context switches observed), charge each tenant resident cycles and
// instructions, and conserve the instruction attribution exactly
// against the machine's user-ring ground truth.
func TestTenantTimeSharing(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.Tenants = 2
	kcfg.TenantQuantum = 2_000
	m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})

	b := isa.NewBuilder()
	entryA := computeLoop(b, "a", 300, 40)
	entryB := computeLoop(b, "b", 300, 40)
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "t0", entryA, 1)
	tb := m.Kern.Spawn(proc, "t1", entryB, 2)
	tb.Tenant = 1

	res := m.Run(machine.RunLimits{MaxSteps: 10_000_000})
	if res.Err != nil || len(res.Faults) > 0 || !res.AllDone {
		t.Fatalf("run failed: %+v", res)
	}

	if m.Kern.Stats.VCpuSwitches < 2 {
		t.Fatalf("VCpuSwitches = %d, want >= 2 (both tenants must become resident)", m.Kern.Stats.VCpuSwitches)
	}
	if m.Kern.Stats.TenantPreemptions == 0 {
		t.Error("no tenant-quantum preemptions on a contended core")
	}

	accts := m.Kern.TenantAccts()
	if len(accts) != 2 {
		t.Fatalf("TenantAccts returned %d entries, want 2", len(accts))
	}
	var instrSum, estSum uint64
	for _, a := range accts {
		if a.Instructions == 0 || a.Cycles == 0 {
			t.Errorf("tenant %d ledger empty: %+v", a.ID, a)
		}
		if a.Resumes == 0 {
			t.Errorf("tenant %d never resumed", a.ID)
		}
		instrSum += a.Instructions
		estSum += a.UncoreEst
	}
	if gt := m.GroundTruthRing(pmu.EvInstructions, pmu.RingUser); instrSum != gt {
		t.Errorf("tenant ledgers sum to %d instructions, machine retired %d", instrSum, gt)
	}
	if ut := m.Kern.UncoreTotal(); estSum != ut {
		t.Errorf("uncore estimates sum to %d, socket counted %d", estSum, ut)
	}

	chk := invariant.New(nil)
	chk.CheckTenants(accts, m.GroundTruthRing(pmu.EvInstructions, pmu.RingUser),
		m.Kern.UncoreTotal(), m.Kern.Threads())
	for _, v := range chk.Violations() {
		t.Errorf("tenant oracle violation: %v", v)
	}
}

// TestTenantAcctsOffLayer: with the tenant layer off, the accounting
// surface reports nil/zero rather than inventing a tenant.
func TestTenantAcctsOffLayer(t *testing.T) {
	m := machine.New(machine.Config{NumCores: 1})
	if accts := m.Kern.TenantAccts(); accts != nil {
		t.Errorf("TenantAccts = %v with the layer off, want nil", accts)
	}
	if ut := m.Kern.UncoreTotal(); ut != 0 {
		t.Errorf("UncoreTotal = %d with the layer off, want 0", ut)
	}
	// Attaching metrics without tenant counters must not panic; a set
	// registered for tenants the kernel does not run is a wiring error.
	m.Kern.SetMetrics(kernel.NewMetrics(telemetry.NewRegistry(), 1))
	defer func() {
		if recover() == nil {
			t.Error("attaching 3-tenant metrics to a kernel without tenants did not panic")
		}
	}()
	m.Kern.SetMetrics(kernel.NewMetrics(telemetry.NewRegistry(), 3))
}

// TestTenantResidencyCapMigrates caps each tenant at one resident vCPU
// on a two-core machine with two threads per tenant: the second thread
// of a saturated tenant cannot claim a second core, so the scheduler
// must migrate it to where its tenant is already resident — and the
// attribution must stay exact through the moves.
func TestTenantResidencyCapMigrates(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.Tenants = 2
	kcfg.TenantQuantum = 2_000
	kcfg.VCPUs = 1
	m := machine.New(machine.Config{NumCores: 2, Kernel: kcfg})

	b := isa.NewBuilder()
	entries := []int{
		computeLoop(b, "a0", 200, 30),
		computeLoop(b, "a1", 200, 30),
		computeLoop(b, "b0", 200, 30),
		computeLoop(b, "b1", 200, 30),
	}
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	for i, e := range entries {
		th := m.Kern.Spawn(proc, "w", e, uint64(i+1))
		th.Tenant = i / 2
	}

	res := m.Run(machine.RunLimits{MaxSteps: 20_000_000})
	if res.Err != nil || len(res.Faults) > 0 || !res.AllDone {
		t.Fatalf("run failed: %+v", res)
	}
	if m.Kern.Stats.VCpuMigrations == 0 {
		t.Error("residency cap 1 on 2 cores produced no vCPU migrations")
	}

	accts := m.Kern.TenantAccts()
	chk := invariant.New(nil)
	chk.CheckTenants(accts, m.GroundTruthRing(pmu.EvInstructions, pmu.RingUser),
		m.Kern.UncoreTotal(), m.Kern.Threads())
	for _, v := range chk.Violations() {
		t.Errorf("tenant oracle violation after migrations: %v", v)
	}
}

// TestSignalDeliveryInsideFixupRegionDuringMigration lands a signal at
// every PC of the read-critical region on a thread that is being
// bounced between cores: delivery is held until the thread has
// migrated at least once and sits exactly at the target PC, so the
// saved-frame fixup runs on a core the thread was not born on, right
// after a migration. Measurements must stay exact and the checker
// silent — migration adds a third reason to leave the core, not a
// third mechanism.
func TestSignalDeliveryInsideFixupRegionDuringMigration(t *testing.T) {
	probe := buildSignalSweepWorkload()
	if len(probe.regions) == 0 {
		t.Fatal("workload emitted no read-critical regions")
	}
	for _, region := range probe.regions {
		for pc := region[0]; pc < region[1]; pc++ {
			w := buildSignalSweepWorkload()
			feats := pmu.DefaultFeatures()
			feats.WriteWidth = 9
			m := machine.New(machine.Config{NumCores: 2, PMU: feats, Kernel: kernel.DefaultConfig()})

			target := pc
			migrations := 0
			boundaries := 0
			m.Kern.SetChaos(&kernel.Chaos{
				// A periodic forced preemption whose re-enqueue is always
				// redirected to the other core: a migration storm.
				PreemptAfter: func(coreID int, th *kernel.Thread) bool {
					boundaries++
					return boundaries%13 == 0
				},
				Place: func(th *kernel.Thread, def int) int {
					migrations++
					return (def + 1) % 2
				},
				// Deliver only post-migration, exactly at the target PC.
				HoldSignal: func(coreID int, th *kernel.Thread) bool {
					return migrations == 0 || th.Ctx.PC != target
				},
			})
			chk := invariant.New(w.regions)
			chk.Attach(m.Kern)

			proc := m.Kern.NewProcess(w.prog, w.space)
			th := m.Kern.Spawn(proc, "sig", 0, 5)
			m.Kern.PostSignal(th, 1, 0)

			res := m.Run(machine.RunLimits{MaxSteps: 10_000_000})
			if res.Err != nil || len(res.Faults) > 0 || !res.AllDone {
				t.Fatalf("pc %d: run failed: %+v", pc, res)
			}
			if th.Stats.Signals != 1 {
				t.Fatalf("pc %d: %d signals delivered, want 1", pc, th.Stats.Signals)
			}
			if migrations == 0 {
				t.Fatalf("pc %d: delivery was not preceded by a migration", pc)
			}

			chk.Finalize(proc, m.Kern.Threads(), 0)
			for _, v := range chk.Violations() {
				t.Errorf("pc %d: invariant violation: %v", pc, v)
			}
			if chk.ReadsCompleted == 0 {
				t.Fatalf("pc %d: checker observed no completed reads", pc)
			}
			for i := 0; i < sigSweepIters; i++ {
				d := w.space.Read64(w.buf + uint64(i)*8)
				if d < w.want || d > w.want+128 {
					t.Errorf("pc %d: delta[%d] = %d outside [%d,%d]",
						pc, i, d, w.want, w.want+128)
				}
			}
		}
	}
}

// TestTenantMetricsCanonicalOrder is the golden test for the per-tenant
// telemetry surface: NewMetrics must register tenant names so that
// registration order (which is render order) equals canonical sorted
// order — the property fleet-mode merges of tenant campaigns rely on.
func TestTenantMetricsCanonicalOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	kernel.NewMetrics(reg, 3)

	var buf bytes.Buffer
	reg.Render(&buf)
	names := regexp.MustCompile(`(?m)^(tenant\.[0-9]{2}\.[a-z.]+)`).FindAllString(buf.String(), -1)

	want := []string{
		"tenant.00.cycles.resident",
		"tenant.00.instructions",
		"tenant.00.vcpu.migrations",
		"tenant.00.vcpu.preempts",
		"tenant.01.cycles.resident",
		"tenant.01.instructions",
		"tenant.01.vcpu.migrations",
		"tenant.01.vcpu.preempts",
		"tenant.02.cycles.resident",
		"tenant.02.instructions",
		"tenant.02.vcpu.migrations",
		"tenant.02.vcpu.preempts",
	}
	if len(names) != len(want) {
		t.Fatalf("rendered %d tenant metrics, want %d:\n%s", len(names), len(want), buf.String())
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("rendered[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("tenant metric render order is not canonically sorted: %v", names)
	}
}
