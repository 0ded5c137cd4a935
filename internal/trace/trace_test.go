package trace_test

import (
	"math"
	"strings"
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/trace"
)

func TestRingRetention(t *testing.T) {
	b := trace.NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Append(trace.Event{Cycle: uint64(i)})
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != uint64(6+i) {
			t.Errorf("event %d cycle %d, want %d (chronological tail)", i, e.Cycle, 6+i)
		}
	}
	if b.Total() != 10 {
		t.Errorf("total %d", b.Total())
	}
	// After the wrap CountKind sees the retained window only.
	b.Append(trace.Event{Cycle: 10, Kind: trace.PMI})
	b.Append(trace.Event{Cycle: 11, Kind: trace.PMI})
	if n := b.CountKind(trace.PMI); n != 2 {
		t.Errorf("CountKind(PMI) = %d after the wrap, want 2", n)
	}
	if n := b.CountKind(trace.SwitchIn); n != 2 {
		t.Errorf("CountKind(SwitchIn) = %d after the wrap, want the 2 retained zero-kind events", n)
	}
}

// A ring's capacity bounds what it keeps, not what it allocates up
// front: the largest capacity records and returns events in order.
func TestHugeCapacityGrows(t *testing.T) {
	b := trace.NewBuffer(math.MaxInt)
	for i := 0; i < 3000; i++ {
		b.Append(trace.Event{Cycle: uint64(i)})
	}
	evs := b.Events()
	if len(evs) != 3000 {
		t.Fatalf("retained %d, want 3000", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != uint64(i) {
			t.Fatalf("event %d cycle %d, want %d", i, e.Cycle, i)
		}
	}
}

func TestPartialRing(t *testing.T) {
	b := trace.NewBuffer(8)
	b.Append(trace.Event{Cycle: 1})
	b.Append(trace.Event{Cycle: 2})
	evs := b.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Errorf("partial ring events %v", evs)
	}
}

func TestKernelTracing(t *testing.T) {
	m := machine.New(machine.Config{NumCores: 1})
	buf := trace.NewBuffer(4096)
	m.Kern.SetTracer(buf)

	b := isa.NewBuilder()
	b.MovImm(isa.R8, 0)
	b.MovImm(isa.R9, 5)
	b.Label("loop")
	b.Syscall(kernel.SysYield)
	b.AddImm(isa.R8, isa.R8, 1)
	b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
	b.Halt()
	proc := m.Kern.NewProcess(b.MustBuild(), nil)
	m.Kern.Spawn(proc, "a", 0, 1)
	m.Kern.Spawn(proc, "b", 0, 2)
	res := m.Run(machine.RunLimits{MaxSteps: 1_000_000})
	if !res.AllDone {
		t.Fatal(res)
	}

	if n := buf.CountKind(trace.Syscall); n != 10 {
		t.Errorf("traced %d syscalls, want 10", n)
	}
	if buf.CountKind(trace.SwitchIn) == 0 || buf.CountKind(trace.SwitchOut) == 0 {
		t.Error("no scheduling events traced")
	}
	if n := buf.CountKind(trace.Exit); n != 2 {
		t.Errorf("traced %d exits, want 2", n)
	}

	var sb strings.Builder
	buf.Dump(&sb, 5)
	if lines := strings.Count(sb.String(), "\n"); lines != 5 {
		t.Errorf("dump emitted %d lines, want 5", lines)
	}
	if !strings.Contains(sb.String(), "exit") {
		t.Errorf("dump tail should include the exits:\n%s", sb.String())
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []trace.Kind{trace.SwitchIn, trace.SwitchOut, trace.Syscall,
		trace.Signal, trace.PMI, trace.Wake, trace.Spawn, trace.Exit, trace.Fault} {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
