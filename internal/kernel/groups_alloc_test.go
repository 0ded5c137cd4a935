package kernel

import (
	"testing"

	"limitsim/internal/cpu"
	"limitsim/internal/pmu"
)

// muxThread builds a kernel on one 6-counter core whose current thread
// holds four two-event SysGroupOpen groups and two perf counters: more
// events than counters, so switch-ins and rotations both place a
// partial window, as a multiplexed metrics run does.
func muxThread() (*Kernel, *cpu.Core, *Thread) {
	core := cpu.NewCore(0, pmu.Features{NumCounters: 6, CounterWidth: 48, WriteWidth: 31})
	k := New(DefaultConfig(), []*cpu.Core{core})
	th := &Thread{ID: 1}
	for i := range 4 {
		th.groups = append(th.groups, &EventGroup{
			Events: []GroupEvent{
				{Event: pmu.Event(2 * i), CountUser: true},
				{Event: pmu.Event(2*i + 1), CountUser: true, CountKernel: true},
			},
			Raw:  make([]uint64, 2),
			True: make([]uint64, 2),
		})
	}
	for _, ev := range []pmu.Event{pmu.EvCycles, pmu.EvLoads} {
		tc := &ThreadCounter{Kind: KindPerf, Event: ev, CountUser: true, HWSlot: -1}
		tc.group = perfGroup(tc)
		th.counters = append(th.counters, tc)
	}
	k.cur[0] = th
	k.frames = make([]Frame, 0, 1024) // keep frame-log growth out of the counts
	return k, core, th
}

// Once the kernel's planning scratch has grown, a group-holding
// thread's switch-in (load, then the save that parks it) allocates
// nothing, and a quantum rotation allocates only the frame it emits.
func TestGroupSchedulingAllocatesNothing(t *testing.T) {
	k, core, th := muxThread()
	switchIn := func() {
		k.restoreCounters(core, th)
		core.Now += 1000
		k.saveCounters(core, th)
	}
	rotate := func() {
		core.Now += k.cfg.MuxQuantum
		k.muxRotate(0, th)
	}
	for range 8 {
		switchIn()
	}
	if n := testing.AllocsPerRun(100, switchIn); n != 0 {
		t.Errorf("switch-in and save allocate %v objects, want 0", n)
	}
	k.restoreCounters(core, th)
	for range 8 {
		rotate()
	}
	if n := testing.AllocsPerRun(100, rotate); n != 1 {
		t.Errorf("a rotation allocates %v objects, want 1 (its frame's samples)", n)
	}
	if th.muxPos < 100 || k.Stats.MuxRotations < 100 {
		t.Fatalf("too little moved: %d perf-group switch-ins, %d rotations", th.muxPos, k.Stats.MuxRotations)
	}
}

// emitFrame sizes a frame's samples once: one array, exactly as long as
// the thread's group events.
func TestEmitFrameAllocatesOneSamplesArray(t *testing.T) {
	k, _, th := muxThread()
	if n := testing.AllocsPerRun(100, func() { k.emitFrame(0, th, false) }); n != 1 {
		t.Errorf("emitFrame allocates %v objects, want 1", n)
	}
	f := k.frames[len(k.frames)-1]
	if len(f.Samples) != 8 || cap(f.Samples) != 8 {
		t.Errorf("frame samples len %d cap %d, want 8 and 8", len(f.Samples), cap(f.Samples))
	}
}
