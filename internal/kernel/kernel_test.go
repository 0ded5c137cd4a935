package kernel_test

import (
	"errors"
	"strings"
	"testing"

	"limitsim/internal/cpu"
	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

func newMachine(cores int) *machine.Machine {
	return machine.New(machine.Config{NumCores: cores})
}

func run(t *testing.T, m *machine.Machine) machine.RunResult {
	t.Helper()
	res := m.Run(machine.RunLimits{MaxSteps: 50_000_000})
	if len(res.Faults) > 0 {
		t.Fatalf("faults: %v", res.Faults)
	}
	if !res.AllDone {
		t.Fatalf("run incomplete: %v", res)
	}
	return res
}

func TestGetTIDAndLogValue(t *testing.T) {
	m := newMachine(1)
	b := isa.NewBuilder()
	b.Syscall(kernel.SysGetTID)
	b.Mov(isa.R1, isa.R0) // value = tid
	b.MovImm(isa.R0, 7)   // tag
	b.Syscall(kernel.SysLogValue)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	th := m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)

	logs := m.Kern.Logs()
	if len(logs) != 1 {
		t.Fatalf("got %d log entries, want 1", len(logs))
	}
	if logs[0].Tag != 7 || logs[0].Value != uint64(th.ID) || logs[0].TID != th.ID {
		t.Errorf("log entry %+v, want tag 7 value %d", logs[0], th.ID)
	}
}

func TestNanosleepAdvancesTime(t *testing.T) {
	m := newMachine(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, 500_000)
	b.Syscall(kernel.SysNanosleep)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "sleeper", 0, 1)
	res := run(t, m)
	if res.Cycles < 500_000 {
		t.Errorf("run finished at %d cycles; sleep should push past 500k", res.Cycles)
	}
}

// A nanosleep whose deadline would wrap the clock or reach ^0, the
// sleeper set's "no deadline" sentinel, faults the thread as an unknown
// syscall does. One cycle shorter still sleeps: the kernel takes the
// deadline, and the machine stops at its clock ceiling instead.
func TestNanosleepDeadlineOverflow(t *testing.T) {
	sleep := func(dur uint64) (machine.RunResult, *kernel.Thread) {
		m := newMachine(1)
		b := isa.NewBuilder()
		b.MovImm(isa.R0, int64(dur))
		b.Syscall(kernel.SysNanosleep)
		b.Halt()
		proc := m.Kern.NewProcess(b.MustBuild(), nil)
		th := m.Kern.Spawn(proc, "sleeper", 0, 1)
		return m.Run(machine.RunLimits{MaxSteps: 1_000}), th
	}
	// A zero-length sleep's deadline is the clock the syscall reads.
	_, th := sleep(0)
	now := th.WakeAt
	for _, c := range []struct {
		name  string
		dur   uint64
		fault bool
	}{
		{"-1", ^uint64(0), true},
		{"^0-now", ^uint64(0) - now, true},
		{"^0-now-1", ^uint64(0) - now - 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, _ := sleep(c.dur)
			var fe *machine.FaultError
			if !errors.As(res.Err, &fe) {
				t.Fatalf("run ended without a fault: %v", res)
			}
			if c.fault {
				if len(res.Faults) != 1 || !strings.Contains(res.Faults[0], "nanosleep") || fe.Ceiling != 0 {
					t.Errorf("want one nanosleep thread fault, got %v (ceiling %d)", res.Faults, fe.Ceiling)
				}
				return
			}
			if len(res.Faults) != 0 || fe.Ceiling == 0 {
				t.Errorf("want the machine's clock ceiling, got %v (%v)", res.Faults, fe)
			}
		})
	}
}

func TestFutexWaitValueMismatchReturnsImmediately(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	addr := space.AllocWords(1)
	space.Write64(addr, 99)

	b := isa.NewBuilder()
	b.MovImm(isa.R0, int64(addr))
	b.MovImm(isa.R1, 0) // expect 0, but memory holds 99
	b.Syscall(kernel.SysFutexWait)
	b.MovImm(isa.R2, int64(addr))
	b.Store(isa.R2, 0, isa.R0) // store return value for inspection
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)
	if got := space.Read64(addr); got != 1 {
		t.Errorf("futex_wait returned %d, want 1 (value mismatch)", got)
	}
}

func TestFutexWakeHandsOff(t *testing.T) {
	// A waiter parks on a word; a waker stores a new value and wakes it.
	m := newMachine(2)
	space := mem.NewSpace()
	futex := space.AllocWords(1)
	flag := space.AllocWords(1)

	b := isa.NewBuilder()
	b.Label("waiter")
	b.MovImm(isa.R0, int64(futex))
	b.MovImm(isa.R1, 0)
	b.Syscall(kernel.SysFutexWait)
	// Record that we woke with the new value visible.
	b.MovImm(isa.R2, int64(futex))
	b.Load(isa.R3, isa.R2, 0)
	b.MovImm(isa.R2, int64(flag))
	b.Store(isa.R2, 0, isa.R3)
	b.Halt()

	b.Label("waker")
	b.Compute(20_000) // let the waiter park first
	b.MovImm(isa.R2, int64(futex))
	b.MovImm(isa.R3, 42)
	b.Store(isa.R2, 0, isa.R3)
	b.MovImm(isa.R0, int64(futex))
	b.MovImm(isa.R1, 1)
	b.Syscall(kernel.SysFutexWake)
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "waiter", prog.MustEntry("waiter"), 1)
	m.Kern.Spawn(proc, "waker", prog.MustEntry("waker"), 2)
	run(t, m)
	if got := space.Read64(flag); got != 42 {
		t.Errorf("waiter observed %d, want 42", got)
	}
}

func TestFutexWakeReturnsCount(t *testing.T) {
	m := newMachine(2)
	space := mem.NewSpace()
	futex := space.AllocWords(1)
	out := space.AllocWords(1)

	b := isa.NewBuilder()
	b.Label("waiter")
	b.MovImm(isa.R0, int64(futex))
	b.MovImm(isa.R1, 0)
	b.Syscall(kernel.SysFutexWait)
	b.Halt()

	b.Label("waker")
	b.Compute(40_000)
	b.MovImm(isa.R0, int64(futex))
	b.MovImm(isa.R1, 10) // wake up to 10; only 2 parked
	b.Syscall(kernel.SysFutexWake)
	b.MovImm(isa.R2, int64(out))
	b.Store(isa.R2, 0, isa.R0)
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "w1", prog.MustEntry("waiter"), 1)
	m.Kern.Spawn(proc, "w2", prog.MustEntry("waiter"), 2)
	m.Kern.Spawn(proc, "waker", prog.MustEntry("waker"), 3)
	run(t, m)
	if got := space.Read64(out); got != 2 {
		t.Errorf("futex_wake returned %d, want 2", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A waiter that nobody wakes: the machine must report deadlock, not
	// hang.
	m := newMachine(1)
	space := mem.NewSpace()
	futex := space.AllocWords(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, int64(futex))
	b.MovImm(isa.R1, 0)
	b.Syscall(kernel.SysFutexWait)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "stuck", 0, 1)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000_000})
	if !res.Deadlocked {
		t.Errorf("expected deadlock, got %v", res)
	}
}

func TestSignalDeliveryAndReturn(t *testing.T) {
	// Install a SIGUSR1 handler, then have the kernel post the signal
	// via a small hook: we use the signal-mode overflow path instead —
	// simpler: sigaction + post through a counter overflow is tested in
	// TestSignalModeOverflow. Here we test sigaction + deliverance by
	// self-arming SIGPMU in SignalUser mode with a tiny write width.
	kcfg := kernel.DefaultConfig()
	kcfg.LimitOverflow = kernel.SignalUser
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 10 // overflow every 1024 events

	m := machine.New(machine.Config{NumCores: 1, PMU: feats, Kernel: kcfg})
	space := mem.NewSpace()
	table := space.AllocWords(1)
	hits := space.AllocWords(1)

	b := isa.NewBuilder()
	// handler: count invocations, fold manually (R1 = counter idx).
	b.Label("handler")
	b.MovImm(isa.R2, int64(hits))
	b.Load(isa.R3, isa.R2, 0)
	b.AddImm(isa.R3, isa.R3, 1)
	b.Store(isa.R2, 0, isa.R3)
	b.MovImm(isa.R2, int64(table))
	b.Load(isa.R3, isa.R2, 0)
	b.AddImm(isa.R3, isa.R3, 1<<10)
	b.Store(isa.R2, 0, isa.R3)
	b.SigReturn()

	b.Label("main")
	b.Syscall(kernel.SysLimitInit)
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.MovImm(isa.R2, int64(table))
	b.Syscall(kernel.SysLimitOpen)
	b.MovImm(isa.R0, kernel.SIGPMU)
	b.MovLabel(isa.R1, "handler")
	b.Syscall(kernel.SysSigaction)
	b.Compute(200)
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 40)
	b.Label("loop")
	b.Compute(200)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	th := m.Kern.Spawn(proc, "w", prog.MustEntry("main"), 1)
	run(t, m)

	nhits := space.Read64(hits)
	if nhits == 0 {
		t.Fatal("overflow signals never delivered")
	}
	if th.Stats.Signals != nhits {
		t.Errorf("thread saw %d signals, handler ran %d times", th.Stats.Signals, nhits)
	}
	// ~8400 instructions at one overflow per 1024.
	if nhits < 4 || nhits > 12 {
		t.Errorf("handler ran %d times; expected roughly 8", nhits)
	}
	// The handler's folds plus the final saved value must reconstruct
	// the thread's instruction count (modulo the setup prologue).
	tc := th.Counters()[0]
	total := space.Read64(table) + tc.Saved
	truth := th.Stats.UserInstructions
	if total > truth || truth-total > 40 {
		t.Errorf("signal-mode virtualized count %d vs ground truth %d", total, truth)
	}
}

func TestSignalWithoutHandlerIsDropped(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.LimitOverflow = kernel.SignalUser
	feats := pmu.DefaultFeatures()
	feats.WriteWidth = 10

	m := machine.New(machine.Config{NumCores: 1, PMU: feats, Kernel: kcfg})
	space := mem.NewSpace()
	table := space.AllocWords(1)
	b := isa.NewBuilder()
	b.Syscall(kernel.SysLimitInit)
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.MovImm(isa.R2, int64(table))
	b.Syscall(kernel.SysLimitOpen)
	b.Compute(5_000) // several overflows, no handler installed
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m) // must not fault or wedge
	if m.Kern.Stats.SignalsSent == 0 {
		t.Error("expected signals to be posted (and dropped)")
	}
}

func TestPerfCounterSurvivesContextSwitches(t *testing.T) {
	// Two threads on one core with small quantum; each opens a perf
	// instruction counter. Final virtualized value must track each
	// thread's own ground truth, not the interleaved total.
	kcfg := kernel.DefaultConfig()
	kcfg.Quantum = 2_000
	m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})

	b := isa.NewBuilder()
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.Syscall(kernel.SysPerfOpen)
	b.Mov(isa.R7, isa.R0) // fd
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 100)
	b.Label("loop")
	b.Compute(500)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()

	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	t1 := m.Kern.Spawn(proc, "a", 0, 1)
	t2 := m.Kern.Spawn(proc, "b", 0, 2)
	run(t, m)

	for _, th := range []*kernel.Thread{t1, t2} {
		if th.Stats.Preemptions == 0 {
			t.Errorf("%s: expected preemptions", th.Name)
		}
		got := th.Counters()[0].Group().Estimate(0)
		truth := th.Stats.UserInstructions
		if got > truth || truth-got > 10 {
			t.Errorf("%s: perf counter %d vs ground truth %d", th.Name, got, truth)
		}
	}
}

func TestPerfResetAndClose(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	out := space.AllocWords(2)

	b := isa.NewBuilder()
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.Syscall(kernel.SysPerfOpen)
	b.Mov(isa.R7, isa.R0)
	b.Compute(1_000)
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysPerfReset)
	b.Compute(100)
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysPerfRead)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysPerfClose)
	// Read after close yields the error sentinel.
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysPerfRead)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 8, isa.R0)
	b.Halt()

	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)

	afterReset := space.Read64(out)
	if afterReset < 100 || afterReset > 150 {
		t.Errorf("post-reset read %d, want ~100-130 (reset must zero)", afterReset)
	}
	if got := space.Read64(out + 8); got != ^uint64(0) {
		t.Errorf("read after close returned %#x, want error sentinel", got)
	}
}

// The perf syscalls act on perf counters only: handed a LiMiT fd, the
// read fails as on a closed fd and the reset leaves the counter alone,
// so the LiMiT count still equals the thread's true user instructions.
func TestPerfSyscallsRejectLimitFd(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	table := space.AllocWords(1)
	out := space.AllocWords(1)

	b := isa.NewBuilder()
	b.Syscall(kernel.SysLimitInit)
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.MovImm(isa.R2, int64(table))
	b.Syscall(kernel.SysLimitOpen)
	b.Mov(isa.R7, isa.R0)
	b.Compute(1_000)
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysPerfReset)
	b.Compute(100)
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysPerfRead)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Halt()

	proc := m.Kern.NewProcess(b.MustBuild(), space)
	th := m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)

	if got := space.Read64(out); got != kernel.RetErr {
		t.Errorf("perf read of a LiMiT fd returned %d, want RetErr", got)
	}
	lim := th.Counters()[0]
	if lim.Kind != kernel.KindLimit {
		t.Fatalf("counter 0 is %v, want limit", lim.Kind)
	}
	got := space.Read64(table) + lim.Saved
	if truth := th.Stats.UserInstructions; got > truth || truth-got > 10 {
		t.Errorf("LiMiT counter %d vs ground truth %d: the perf reset touched it", got, truth)
	}
}

func TestCounterOverSubscription(t *testing.T) {
	// The PMU has 4 counters. A 5th perf open succeeds — perf counters
	// time-multiplex — while a LiMiT open beyond the hardware fails:
	// its userspace rdpmc encodes the slot and cannot float.
	m := newMachine(1)
	space := mem.NewSpace()
	out := space.AllocWords(2)
	table := space.AllocWords(1)
	b := isa.NewBuilder()
	b.Syscall(kernel.SysLimitInit)
	for i := 0; i < 5; i++ {
		b.MovImm(isa.R0, int64(pmu.EvCycles))
		b.MovImm(isa.R1, int64(kernel.FlagUser))
		b.Syscall(kernel.SysPerfOpen)
	}
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0) // 5th perf fd
	b.MovImm(isa.R0, int64(pmu.EvCycles))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.MovImm(isa.R2, int64(table))
	b.Syscall(kernel.SysLimitOpen)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 8, isa.R0) // limit open result
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)
	if got := space.Read64(out); got != 4 {
		t.Errorf("5th perf open returned %#x, want fd 4 (multiplexed)", got)
	}
	if got := space.Read64(out + 8); got != ^uint64(0) {
		t.Errorf("limit open beyond hardware returned %#x, want error sentinel", got)
	}
}

func TestLimitOpenRequiresInit(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	table := space.AllocWords(1)
	out := space.AllocWords(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, int64(pmu.EvCycles))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.MovImm(isa.R2, int64(table))
	b.Syscall(kernel.SysLimitOpen) // no SysLimitInit first
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)
	if got := space.Read64(out); got != ^uint64(0) {
		t.Errorf("limit_open without init returned %#x, want error", got)
	}
}

func TestSamplingCapturesAtExpectedRate(t *testing.T) {
	m := newMachine(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, 1_000)
	b.Syscall(kernel.SysSampleStart)
	b.Compute(400)
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 50)
	b.Label("loop")
	b.Compute(400)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Syscall(kernel.SysSampleStop)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)

	n := len(m.Kern.Samples())
	// ~20500 instructions at one sample per 1000.
	if n < 15 || n > 26 {
		t.Errorf("captured %d samples, want ~20", n)
	}
	for _, s := range m.Kern.Samples() {
		if s.PC < 0 || s.PC > 20 {
			t.Errorf("sample PC %d outside program", s.PC)
		}
	}
}

func TestSysIOChargesKernelTime(t *testing.T) {
	m := newMachine(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, 8_192)
	b.Syscall(kernel.SysIO)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "w", 0, 1)
	run(t, m)
	kc := m.Cores[0].PMU.GroundTruth(pmu.EvCycles, pmu.RingKernel)
	if kc < 2_500 {
		t.Errorf("SysIO charged only %d kernel cycles", kc)
	}
}

func TestUnknownSyscallFaults(t *testing.T) {
	m := newMachine(1)
	b := isa.NewBuilder()
	b.Syscall(9999)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "w", 0, 1)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000_000})
	if len(res.Faults) != 1 {
		t.Fatalf("want 1 fault, got %v", res.Faults)
	}
}

func TestFaultingThreadDoesNotStopOthers(t *testing.T) {
	m := newMachine(1)
	b := isa.NewBuilder()
	b.Label("bad")
	b.RdPMC(isa.R1, 0) // faults: rdpmc not enabled
	b.Halt()
	b.Label("good")
	b.Compute(1_000)
	b.Halt()
	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, nil)
	m.Kern.Spawn(proc, "bad", prog.MustEntry("bad"), 1)
	good := m.Kern.Spawn(proc, "good", prog.MustEntry("good"), 2)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000_000})
	if !res.AllDone {
		t.Fatalf("machine wedged: %v", res)
	}
	if len(res.Faults) != 1 {
		t.Errorf("want exactly 1 fault, got %v", res.Faults)
	}
	if good.State != kernel.StateDone || good.FaultMsg != "" {
		t.Error("healthy thread should complete cleanly")
	}
}

func TestWorkSpreadsAcrossCores(t *testing.T) {
	m := newMachine(4)
	b := isa.NewBuilder()
	b.Compute(100_000)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	for i := 0; i < 4; i++ {
		m.Kern.Spawn(proc, "w", 0, uint64(i))
	}
	run(t, m)
	for i, c := range m.Cores {
		if c.PMU.GroundTruth(pmu.EvInstructions, pmu.RingUser) == 0 {
			t.Errorf("core %d retired nothing; spawn should balance load", i)
		}
	}
}

func TestYieldRotatesThreads(t *testing.T) {
	// Two yielding threads on one core must interleave, producing
	// context switches far beyond quantum-driven preemption alone.
	m := newMachine(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 50)
	b.Label("loop")
	b.Syscall(kernel.SysYield)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "a", 0, 1)
	m.Kern.Spawn(proc, "b", 0, 2)
	run(t, m)
	if m.Kern.Stats.CtxSwitches < 100 {
		t.Errorf("only %d switches for 100 yields", m.Kern.Stats.CtxSwitches)
	}
}

func TestThreadStateString(t *testing.T) {
	states := map[kernel.ThreadState]string{
		kernel.StateReady: "ready", kernel.StateRunning: "running",
		kernel.StateBlocked: "blocked", kernel.StateSleeping: "sleeping",
		kernel.StateDone: "done",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d renders %q, want %q", s, s.String(), want)
		}
	}
}

func TestStepResultTrapKinds(t *testing.T) {
	for k, want := range map[cpu.TrapKind]string{
		cpu.TrapNone: "none", cpu.TrapSyscall: "syscall", cpu.TrapHalt: "halt",
		cpu.TrapFault: "fault", cpu.TrapSigReturn: "sigreturn",
	} {
		if k.String() != want {
			t.Errorf("trap %d renders %q", k, k.String())
		}
	}
}

func TestSpawnAndJoin(t *testing.T) {
	// A parent forks 3 children, each of which adds its R14 payload to
	// an atomic accumulator; the parent joins all three and reads the
	// final sum — classic fork-join, entirely from simulated code.
	m := newMachine(2)
	space := mem.NewSpace()
	acc := space.AllocWords(1)
	tids := space.AllocWords(3)

	b := isa.NewBuilder()
	b.Label("child")
	b.MovImm(isa.R1, int64(acc))
	b.Mov(isa.R2, isa.R14) // payload
	b.XAdd(isa.R3, isa.R1, isa.R2)
	b.Compute(500)
	b.Halt()

	b.Label("parent")
	b.MovImm(isa.R10, int64(tids))
	for i := 0; i < 3; i++ {
		b.MovLabel(isa.R0, "child")
		b.MovImm(isa.R1, int64(10+i)) // payload in child's R14
		b.MovImm(isa.R2, int64(77+i)) // seed
		b.Syscall(kernel.SysSpawn)
		b.Store(isa.R10, int64(i*8), isa.R0)
	}
	for i := 0; i < 3; i++ {
		b.Load(isa.R0, isa.R10, int64(i*8))
		b.Syscall(kernel.SysJoin)
	}
	// All children done: read the accumulator and expose it in tids[0].
	b.MovImm(isa.R1, int64(acc))
	b.Load(isa.R2, isa.R1, 0)
	b.Store(isa.R10, 0, isa.R2)
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "parent", prog.MustEntry("parent"), 1)
	run(t, m)

	if got := space.Read64(tids); got != 10+11+12 {
		t.Errorf("post-join accumulator %d, want 33", got)
	}
	if n := len(m.Kern.Threads()); n != 4 {
		t.Errorf("thread count %d, want 4", n)
	}
}

func TestJoinAlreadyDoneReturnsImmediately(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	out := space.AllocWords(1)

	b := isa.NewBuilder()
	b.Label("child")
	b.Halt()
	b.Label("parent")
	b.MovLabel(isa.R0, "child")
	b.MovImm(isa.R1, 0)
	b.MovImm(isa.R2, 0)
	b.Syscall(kernel.SysSpawn)
	b.Mov(isa.R7, isa.R0)
	b.Compute(100_000) // child certainly finishes
	b.Mov(isa.R0, isa.R7)
	b.Syscall(kernel.SysJoin)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	m.Kern.Spawn(proc, "parent", prog.MustEntry("parent"), 1)
	run(t, m)
	if got := space.Read64(out); got != 0 {
		t.Errorf("join of finished thread returned %d, want 0", got)
	}
}

func TestSpawnBadEntryFails(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	out := space.AllocWords(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, 99_999) // out of range
	b.Syscall(kernel.SysSpawn)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "p", 0, 1)
	run(t, m)
	if got := space.Read64(out); got != ^uint64(0) {
		t.Errorf("bad-entry spawn returned %#x, want error", got)
	}
}

func TestJoinBadTIDFails(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	out := space.AllocWords(1)
	b := isa.NewBuilder()
	b.MovImm(isa.R0, 999)
	b.Syscall(kernel.SysJoin)
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "p", 0, 1)
	run(t, m)
	if got := space.Read64(out); got != ^uint64(0) {
		t.Errorf("bad-tid join returned %#x, want error", got)
	}
}

func TestLimitCounterExactAcrossMigrations(t *testing.T) {
	// Force cross-core migrations with futex ping-pong between two
	// threads under migrate-on-wake; each thread's LiMiT instruction
	// counter must still match its own ground truth — the kernel's
	// save/restore path preserves counts across cores.
	kcfg := kernel.DefaultConfig()
	kcfg.MigrateOnWake = true
	m := machine.New(machine.Config{NumCores: 4, Kernel: kcfg})
	space := mem.NewSpace()
	tableA := space.AllocWords(1)
	tableB := space.AllocWords(1)
	futA := space.AllocWords(1)
	futB := space.AllocWords(1)

	build := func(b *isa.Builder, entry string, table, myFut, otherFut uint64, rounds int64) {
		b.Label(entry)
		b.Syscall(kernel.SysLimitInit)
		b.MovImm(isa.R0, int64(pmu.EvInstructions))
		b.MovImm(isa.R1, int64(kernel.FlagUser))
		b.MovImm(isa.R2, int64(table))
		b.Syscall(kernel.SysLimitOpen)
		b.MovImm(isa.R8, 0)
		loop := entry + ".loop"
		b.Label(loop)
		b.Compute(400)
		// Wake the peer, then wait to be woken (value-free rendezvous:
		// alternate compute with sleeps to force wake-time placement).
		b.MovImm(isa.R0, int64(otherFut))
		b.MovImm(isa.R1, 1)
		b.Syscall(kernel.SysFutexWake)
		b.MovImm(isa.R0, 2_000)
		b.Syscall(kernel.SysNanosleep)
		_ = myFut
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, rounds)
		b.Br(isa.CondLT, isa.R8, isa.R9, loop)
		b.Halt()
	}

	b := isa.NewBuilder()
	build(b, "a", tableA, futA, futB, 60)
	build(b, "b", tableB, futB, futA, 60)
	// Churn threads keep per-core loads fluctuating so wake-time
	// placement actually moves the measured threads between cores.
	b.Label("churn")
	b.MovImm(isa.R8, 0)
	b.Label("churn.loop")
	b.Compute(900)
	b.MovImm(isa.R0, 1_500)
	b.Syscall(kernel.SysNanosleep)
	b.AddImm(isa.R8, isa.R8, 1)
	b.MovImm(isa.R9, 80)
	b.Br(isa.CondLT, isa.R8, isa.R9, "churn.loop")
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	ta := m.Kern.Spawn(proc, "a", prog.MustEntry("a"), 1)
	tb := m.Kern.Spawn(proc, "b", prog.MustEntry("b"), 2)
	for i := 0; i < 3; i++ {
		m.Kern.Spawn(proc, "churn", prog.MustEntry("churn"), uint64(10+i))
	}
	run(t, m)

	if ta.Stats.Migrations+tb.Stats.Migrations == 0 {
		t.Fatal("expected migrations under migrate-on-wake with sleeps")
	}
	for _, th := range []*kernel.Thread{ta, tb} {
		tc := th.Counters()[0]
		got := th.Proc.Mem.Read64(tc.TableAddr) + tc.Saved
		truth := th.Stats.UserInstructions
		if got > truth || truth-got > 20 {
			t.Errorf("%s: counter %d vs ground truth %d after %d migrations",
				th.Name, got, truth, th.Stats.Migrations)
		}
	}
}

func TestSelfJoinRejected(t *testing.T) {
	m := newMachine(1)
	space := mem.NewSpace()
	out := space.AllocWords(1)
	b := isa.NewBuilder()
	b.Syscall(kernel.SysGetTID)
	b.Syscall(kernel.SysJoin) // R0 = own tid
	b.MovImm(isa.R1, int64(out))
	b.Store(isa.R1, 0, isa.R0)
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), space)
	m.Kern.Spawn(proc, "narcissus", 0, 1)
	run(t, m)
	if got := space.Read64(out); got != ^uint64(0) {
		t.Errorf("self-join returned %#x, want error (would deadlock)", got)
	}
}

func TestMultiplexedEstimates(t *testing.T) {
	// Eight perf instruction counters on a 4-slot PMU: each is loaded
	// roughly half the time (rotated at context switches) and its read
	// is a scaled estimate. On steady work the estimates must land
	// near the thread's true instruction count; with only 4 counters
	// they must be exact.
	kcfg := kernel.DefaultConfig()
	kcfg.Quantum = 3_000 // frequent rotation
	m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})

	b := isa.NewBuilder()
	for i := 0; i < 8; i++ {
		b.MovImm(isa.R0, int64(pmu.EvInstructions))
		b.MovImm(isa.R1, int64(kernel.FlagUser))
		b.Syscall(kernel.SysPerfOpen)
	}
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 200)
	b.Label("loop")
	b.Compute(500)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	prog := b.MustBuild()

	proc := m.Kern.NewProcess(prog, nil)
	th := m.Kern.Spawn(proc, "mux", 0, 1)
	m.Kern.Spawn(proc, "rival", 0, 2) // forces context switches
	run(t, m)

	truth := float64(th.Stats.UserInstructions)
	sawMux := false
	for fd := 0; fd < 8; fd++ {
		g := th.Counters()[fd].Group()
		v := g.Estimate(0)
		if g.Multiplexed() {
			sawMux = true
		}
		relErr := (float64(v) - truth) / truth
		if relErr < -0.35 || relErr > 0.35 {
			t.Errorf("fd %d: estimate %d vs truth %.0f (err %.2f)", fd, v, truth, relErr)
		}
	}
	if !sawMux {
		t.Error("8 counters on 4 slots should have multiplexed")
	}
}

func TestCounterIsolationBetweenThreads(t *testing.T) {
	// Thread A opens an instruction counter; thread B (same core, no
	// counters) runs far more work. A's final count must reflect only
	// A's instructions — B's execution with A descheduled must not
	// leak in.
	kcfg := kernel.DefaultConfig()
	kcfg.Quantum = 2_000
	m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})
	space := mem.NewSpace()
	table := space.AllocWords(1)

	b := isa.NewBuilder()
	b.Label("counted")
	b.Syscall(kernel.SysLimitInit)
	b.MovImm(isa.R0, int64(pmu.EvInstructions))
	b.MovImm(isa.R1, int64(kernel.FlagUser))
	b.MovImm(isa.R2, int64(table))
	b.Syscall(kernel.SysLimitOpen)
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 50)
	b.Label("ca")
	b.Compute(200)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "ca")
	b.Halt()

	b.Label("noisy")
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 1_000)
	b.Label("cb")
	b.Compute(200)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "cb")
	b.Halt()

	prog := b.MustBuild()
	proc := m.Kern.NewProcess(prog, space)
	ta := m.Kern.Spawn(proc, "counted", prog.MustEntry("counted"), 1)
	tb := m.Kern.Spawn(proc, "noisy", prog.MustEntry("noisy"), 2)
	run(t, m)

	if ta.Stats.Preemptions == 0 {
		t.Fatal("threads must have interleaved for this test to mean anything")
	}
	got := space.Read64(table) + ta.Counters()[0].Saved
	truthA := ta.Stats.UserInstructions
	truthB := tb.Stats.UserInstructions
	if got > truthA || truthA-got > 40 {
		t.Errorf("A's counter %d vs A's truth %d (B ran %d): leakage or loss",
			got, truthA, truthB)
	}
}
