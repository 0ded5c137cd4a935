package kernel

import (
	"slices"
	"testing"

	"limitsim/internal/cpu"
	"limitsim/internal/isa"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// futexKernel builds a one-core kernel whose one process holds n
// threads, none of them current or queued, and a futex word reading 0.
func futexKernel(n int) (*Kernel, []*Thread, uint64) {
	core := cpu.NewCore(0, pmu.DefaultFeatures())
	k := New(DefaultConfig(), []*cpu.Core{core})
	space := mem.NewSpace()
	addr := space.AllocWords(1)
	proc := k.NewProcess(nil, space)
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = k.Spawn(proc, "futex", 0, 0)
	}
	k.runq[0] = k.runq[0][:0]
	return k, ths, addr
}

// futexCall runs syscall num for t as core 0's current thread, with
// addr in R0 and arg in R1, and returns R0.
func futexCall(k *Kernel, t *Thread, num int64, addr, arg uint64) uint64 {
	k.cur[0] = t
	t.State = StateRunning
	t.Ctx.Regs[isa.R0], t.Ctx.Regs[isa.R1] = addr, arg
	k.syscall(0, t, num)
	k.cur[0] = nil
	return t.Ctx.Regs[isa.R0]
}

// A wake below the queue length wakes the longest waiters, in the
// order they waited, and leaves the rest queued in that order; a wake
// of an emptied queue wakes nobody.
func TestFutexWakeFIFO(t *testing.T) {
	k, ths, addr := futexKernel(5)
	waker, waiters := ths[0], ths[1:]
	for _, w := range waiters {
		futexCall(k, w, SysFutexWait, addr, 0)
	}
	key := futexKey{proc: waker.Proc.ID, addr: addr}
	for _, step := range []struct {
		maxWake, n uint64
		woke, left []*Thread // the run queue and the futex queue after the wake
	}{
		{2, 2, waiters[:2], waiters[2:]},
		{1, 1, waiters[:3], waiters[3:]},
		{5, 1, waiters, nil},
		{1, 0, waiters, nil},
	} {
		n := futexCall(k, waker, SysFutexWake, addr, step.maxWake)
		if n != step.n || !slices.Equal(k.runq[0], step.woke) || !slices.Equal(k.futexes[key], step.left) {
			t.Fatalf("a wake of %d woke %d, leaving run queue %v and futex queue %v; want %d, %v and %v",
				step.maxWake, n, ids(k.runq[0]), ids(k.futexes[key]), step.n, ids(step.woke), ids(step.left))
		}
	}
}

// Once a futex queue and the run queue have grown, a wait/wake cycle —
// three waits, a partial wake and a wake of the rest — allocates
// nothing: woken waiters shift off the queue in place and an emptied
// queue keeps its backing array.
func TestFutexCycleAllocatesNothing(t *testing.T) {
	k, ths, addr := futexKernel(4)
	cycle := func() {
		for _, w := range ths[1:] {
			futexCall(k, w, SysFutexWait, addr, 0)
		}
		futexCall(k, ths[0], SysFutexWake, addr, 2)
		futexCall(k, ths[0], SysFutexWake, addr, 2)
		k.runq[0] = k.runq[0][:0]
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm futex wait/wake cycle allocates %v objects, want 0", n)
	}
	// The cycle ran once above, then once to warm up and 100 times.
	if got := k.Stats.Syscalls; got != 102*5 {
		t.Fatalf("%d syscalls ran, want %d", got, 102*5)
	}
}

func ids(ts []*Thread) []int {
	out := []int{}
	for _, t := range ts {
		out = append(out, t.ID)
	}
	return out
}
