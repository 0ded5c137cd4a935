package machine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/pmu"
)

func infiniteLoop() *isa.Program {
	b := isa.NewBuilder()
	b.Label("l")
	b.Compute(100)
	b.Jmp("l")
	return b.MustBuild()
}

func TestMaxCyclesStopsRun(t *testing.T) {
	m := machine.New(machine.Config{NumCores: 1})
	proc := m.Kern.NewProcess(infiniteLoop(), nil)
	m.Kern.Spawn(proc, "spin", 0, 1)
	res := m.Run(machine.RunLimits{MaxCycles: 50_000})
	if res.AllDone {
		t.Error("infinite loop cannot be done")
	}
	if res.Cycles < 50_000 || res.Cycles > 60_000 {
		t.Errorf("stopped at %d cycles, want just past 50k", res.Cycles)
	}
}

func TestMaxStepsStopsRun(t *testing.T) {
	m := machine.New(machine.Config{NumCores: 1})
	proc := m.Kern.NewProcess(infiniteLoop(), nil)
	m.Kern.Spawn(proc, "spin", 0, 1)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000})
	if res.Steps > 1_000 {
		t.Errorf("executed %d steps past the limit", res.Steps)
	}
}

// A next-action time at or past the clock ceiling does not pack into a
// pick key, so Run stops there with a FaultError naming the core and
// the ceiling, and no pick is made from it: the marker after the jump
// never runs.
func TestClockCeilingStopsRun(t *testing.T) {
	for _, c := range []struct {
		cores   int
		ceiling uint64 // ^0 >> max(1, bits.Len(cores−1))
	}{
		{1, 1<<63 - 1},
		{3, 1<<62 - 1},
		{4, 1<<62 - 1},
	} {
		for _, jump := range []string{"compute", "nanosleep"} {
			t.Run(fmt.Sprintf("%dcores/%s", c.cores, jump), func(t *testing.T) {
				m := machine.New(machine.Config{NumCores: c.cores})
				b := isa.NewBuilder()
				if jump == "compute" {
					// Two blocks: on one core the first stays below the
					// ceiling, and the burst goes on into the second.
					b.Compute(1 << 62)
					b.Compute(1 << 62)
				} else {
					b.MovImm(isa.R0, int64(c.ceiling))
					b.Syscall(kernel.SysNanosleep)
				}
				b.Syscall(kernel.SysLogValue)
				b.Halt()
				proc := m.Kern.NewProcess(b.MustBuild(), nil)
				m.Kern.Spawn(proc, "jumper", 0, 1)
				res := m.Run(machine.RunLimits{})
				var fe *machine.FaultError
				if !errors.As(res.Err, &fe) {
					t.Fatalf("run ended without a fault: %v", res)
				}
				if fe.Ceiling != c.ceiling || res.AllDone || len(res.Faults) != 0 {
					t.Errorf("ceiling %d, done %v, faults %v; want ceiling %d, not done, no thread fault",
						fe.Ceiling, res.AllDone, res.Faults, c.ceiling)
				}
				want := fmt.Sprintf("core %d's next-action time reached the clock ceiling %d", fe.Core, c.ceiling)
				if !strings.Contains(fe.Error(), want) {
					t.Errorf("error %q does not name the core and ceiling (%q)", fe.Error(), want)
				}
				if jump == "compute" && m.Cores[fe.Core].Now < c.ceiling {
					t.Errorf("core %d is at %d, below the ceiling it is blamed for", fe.Core, m.Cores[fe.Core].Now)
				}
				if logs := m.Kern.Logs(); len(logs) != 0 {
					t.Errorf("a pick ran the core past the ceiling: logged %+v", logs)
				}
			})
		}
	}
}

func TestMustRunPanicsOnFault(t *testing.T) {
	m := machine.New(machine.Config{NumCores: 1})
	b := isa.NewBuilder()
	b.RdPMC(isa.R1, 0) // faults without LimitInit
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "bad", 0, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustRun should panic on a fault")
		}
		if !strings.Contains(r.(string), "rdpmc") {
			t.Errorf("panic %q should carry the fault", r)
		}
	}()
	m.MustRun(machine.RunLimits{})
}

func TestEmptyMachineIsDone(t *testing.T) {
	m := machine.New(machine.Config{})
	res := m.Run(machine.RunLimits{})
	if !res.AllDone || res.Steps != 0 {
		t.Errorf("empty machine: %v", res)
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := machine.New(machine.Config{})
	if len(m.Cores) != 4 {
		t.Errorf("default core count %d, want 4", len(m.Cores))
	}
	if m.Cores[0].PMU.NumCounters() != 4 {
		t.Error("default PMU features not applied")
	}
}

func TestTwoProcessesIsolatedMemory(t *testing.T) {
	// Two processes write the same virtual address; each must see its
	// own value (separate address spaces).
	m := machine.New(machine.Config{NumCores: 1})
	build := func(val int64) *isa.Program {
		b := isa.NewBuilder()
		b.MovImm(isa.R1, 0x5000)
		b.MovImm(isa.R2, val)
		b.Store(isa.R1, 0, isa.R2)
		b.Compute(10_000) // overlap in time
		b.Load(isa.R3, isa.R1, 0)
		b.MovImm(isa.R1, 0x6000)
		b.Store(isa.R1, 0, isa.R3)
		b.Halt()
		return b.MustBuild()
	}
	p1 := m.Kern.NewProcess(build(111), nil)
	p2 := m.Kern.NewProcess(build(222), nil)
	m.Kern.Spawn(p1, "a", 0, 1)
	m.Kern.Spawn(p2, "b", 0, 2)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000_000})
	if !res.AllDone {
		t.Fatal(res)
	}
	if got := p1.Mem.Read64(0x6000); got != 111 {
		t.Errorf("process 1 observed %d, want its own 111", got)
	}
	if got := p2.Mem.Read64(0x6000); got != 222 {
		t.Errorf("process 2 observed %d, want its own 222", got)
	}
}

func TestNsFromCycles(t *testing.T) {
	if ns := machine.NsFromCycles(3_000); ns != 1_000 {
		t.Errorf("3000 cycles = %f ns, want 1000 at 3 GHz", ns)
	}
}

func TestGroundTruthAccessors(t *testing.T) {
	m := machine.New(machine.Config{NumCores: 2})
	b := isa.NewBuilder()
	b.Compute(1_000)
	b.Syscall(0) // one yield: generates kernel-ring work
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "w", 0, 1)
	m.MustRun(machine.RunLimits{})

	user := m.GroundTruthRing(pmu.EvCycles, pmu.RingUser)
	kern := m.GroundTruthRing(pmu.EvCycles, pmu.RingKernel)
	if user < 1_000 {
		t.Errorf("user cycles %d", user)
	}
	if kern == 0 {
		t.Error("kernel cycles missing")
	}
	if m.TotalGroundTruth(pmu.EvCycles) != user+kern {
		t.Error("total must be user+kernel")
	}
	if res := m.Run(machine.RunLimits{}); !res.AllDone {
		t.Error("re-running a finished machine must be a no-op success")
	}
}

func TestRunResultString(t *testing.T) {
	res := machine.RunResult{Cycles: 5, Steps: 2, AllDone: true}
	s := res.String()
	if !strings.Contains(s, "cycles=5") || !strings.Contains(s, "done=true") {
		t.Errorf("RunResult render %q", s)
	}
}
