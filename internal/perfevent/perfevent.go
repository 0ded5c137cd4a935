// Package perfevent is the heavyweight baseline the paper compares
// against: a perf_event-style counter interface in which every read is
// a syscall. The kernel virtualizes the counter to 64 bits as a
// one-event group (drained hardware counts, scaled when the group was
// multiplexed), so reads of a never-multiplexed counter are precise —
// but each one pays trap entry, handler, and trap exit, landing around
// a microsecond versus LiMiT's tens of nanoseconds.
//
// Like internal/limit, this package is a code emitter over isa.Builder
// plus host-side helpers. Userspace keeps the returned fd in a
// register or memory and passes it to each read.
package perfevent

import (
	"fmt"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// Spec declares one perf-style counter.
type Spec struct {
	Event       pmu.Event
	CountUser   bool
	CountKernel bool
}

// UserSpec counts ev in the user ring only.
func UserSpec(ev pmu.Event) Spec { return Spec{Event: ev, CountUser: true} }

// AllRingsSpec counts ev in both rings.
func AllRingsSpec(ev pmu.Event) Spec { return Spec{Event: ev, CountUser: true, CountKernel: true} }

// KernelSpec counts ev in the kernel ring only.
func KernelSpec(ev pmu.Event) Spec { return Spec{Event: ev, CountKernel: true} }

func (s Spec) flags() int64 {
	f := int64(0)
	if s.CountUser {
		f |= int64(kernel.FlagUser)
	}
	if s.CountKernel {
		f |= int64(kernel.FlagKernel)
	}
	return f
}

// EmitOpen emits the perf_open syscall for spec; the fd lands in
// fdReg. Clobbers R0 and R1 (and fdReg).
func EmitOpen(b *isa.Builder, spec Spec, fdReg isa.Reg) {
	b.MovImm(isa.R0, int64(spec.Event))
	b.MovImm(isa.R1, spec.flags())
	b.Syscall(kernel.SysPerfOpen)
	if fdReg != isa.R0 {
		b.Mov(fdReg, isa.R0)
	}
}

// EmitRead emits a counter-read syscall for the fd in fdReg; the
// 64-bit value lands in dst. Clobbers R0.
func EmitRead(b *isa.Builder, fdReg, dst isa.Reg) {
	if fdReg != isa.R0 {
		b.Mov(isa.R0, fdReg)
	}
	b.Syscall(kernel.SysPerfRead)
	if dst != isa.R0 {
		b.Mov(dst, isa.R0)
	}
}

// EmitReset emits a counter-reset syscall. Clobbers R0.
func EmitReset(b *isa.Builder, fdReg isa.Reg) {
	if fdReg != isa.R0 {
		b.Mov(isa.R0, fdReg)
	}
	b.Syscall(kernel.SysPerfReset)
}

// EmitClose emits a counter-close syscall. Clobbers R0.
func EmitClose(b *isa.Builder, fdReg isa.Reg) {
	if fdReg != isa.R0 {
		b.Mov(isa.R0, fdReg)
	}
	b.Syscall(kernel.SysPerfClose)
}

// GroupWord encodes one spec as a SysGroupOpen descriptor word: event
// id in the low 32 bits, ring flags in the high 32.
func GroupWord(s Spec) uint64 {
	return uint64(s.Event) | uint64(s.flags())<<32
}

// GroupTable allocates and fills a SysGroupOpen descriptor table in
// space at build time, returning its address. Build-time allocation
// keeps the open sequence to three instructions.
func GroupTable(space *mem.Space, specs []Spec) uint64 {
	addr := space.AllocWords(uint64(len(specs)))
	for i, s := range specs {
		space.Write64(addr+uint64(i)*8, GroupWord(s))
	}
	return addr
}

// EmitGroupOpen emits the group-open syscall for a descriptor table of
// n events at table; the group id lands in R0. Clobbers R0 and R1.
func EmitGroupOpen(b *isa.Builder, table uint64, n int) {
	b.MovImm(isa.R0, int64(table))
	b.MovImm(isa.R1, int64(n))
	b.Syscall(kernel.SysGroupOpen)
}

// EmitGroupRead emits the group-read syscall for event idx of group
// gid; the scaled estimate lands in dst. Clobbers R0 and R1.
func EmitGroupRead(b *isa.Builder, gid, idx int, dst isa.Reg) {
	b.MovImm(isa.R0, int64(gid))
	b.MovImm(isa.R1, int64(idx))
	b.Syscall(kernel.SysGroupRead)
	if dst != isa.R0 {
		b.Mov(dst, isa.R0)
	}
}

// FinalValue returns the final 64-bit value of thread t's perf counter
// fd after the thread has exited: its group's estimate, drained at the
// final deschedule. A counter loaded for its whole life reads exact;
// one that was time-multiplexed reads the Linux-style scaled estimate.
func FinalValue(t *kernel.Thread, fd int) (uint64, error) {
	cs := t.Counters()
	if fd < 0 || fd >= len(cs) {
		return 0, fmt.Errorf("perfevent: thread %d has no counter %d", t.ID, fd)
	}
	tc := cs[fd]
	if tc.Kind != kernel.KindPerf {
		return 0, fmt.Errorf("perfevent: thread %d counter %d is %v, not perf", t.ID, fd, tc.Kind)
	}
	if g := tc.Group(); g != nil {
		return g.Estimate(0), nil
	}
	return 0, nil // a closed clone placeholder never counted
}

// MustFinalValue is FinalValue but panics on error. It exists for
// tests and examples where a bad fd is a bug in the harness itself;
// measurement code should call FinalValue and propagate the error.
func MustFinalValue(t *kernel.Thread, fd int) uint64 {
	v, err := FinalValue(t, fd)
	if err != nil {
		panic(fmt.Sprintf("perfevent.MustFinalValue(thread %d, fd %d): %v", t.ID, fd, err))
	}
	return v
}
