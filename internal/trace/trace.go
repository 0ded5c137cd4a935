// Package trace provides an optional kernel event trace: scheduling,
// syscalls, interrupts and signals recorded as (cycle, core, thread,
// kind, arg) tuples in a bounded ring. It exists for debugging
// simulated workloads and for the limitctl -trace timeline; tracing is
// off unless a buffer is attached, so the hot paths pay one nil check.
package trace

import (
	"fmt"
	"io"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	SwitchIn Kind = iota
	SwitchOut
	Syscall
	Signal
	PMI
	Wake
	Spawn
	Exit
	Fault
	// Clone records a thread created with counter inheritance (arg is
	// the parent TID); Reap records exit-time resource reclamation.
	Clone
	Reap
	// VCpuPreempt, VCpuResume and VCpuMigrate are tenant-scheduler
	// events: a guest vCPU forced off a core mid-quantum, a tenant
	// regaining residency on a core, and a tenant's thread moved to a
	// core its vCPU already occupies (arg is the tenant id).
	VCpuPreempt
	VCpuResume
	VCpuMigrate
	// MuxRotate records an event-group rotation window closing (arg is
	// the new rotation cursor).
	MuxRotate
)

// kindNames is indexed by Kind — the enum is dense, so a slice lookup
// avoids hashing on every formatted event of a tracing-enabled run.
var kindNames = [...]string{
	SwitchIn:    "switch-in",
	SwitchOut:   "switch-out",
	Syscall:     "syscall",
	Signal:      "signal",
	PMI:         "pmi",
	Wake:        "wake",
	Spawn:       "spawn",
	Exit:        "exit",
	Fault:       "fault",
	Clone:       "clone",
	Reap:        "reap",
	VCpuPreempt: "vcpu-preempt",
	VCpuResume:  "vcpu-resume",
	VCpuMigrate: "vcpu-migrate",
	MuxRotate:   "mux-rotate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	Cycle uint64
	Core  int
	TID   int
	Kind  Kind
	// Arg carries kind-specific detail: the syscall number, signal
	// number, or overflow mask.
	Arg uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%12d core%d tid%-3d %-10s arg=%d", e.Cycle, e.Core, e.TID, e.Kind, e.Arg)
}

// Buffer is a bounded event ring. It grows with the events it records
// up to its capacity, then evicts the oldest; a large capacity costs
// memory only as events arrive. The zero value is unusable; call
// NewBuffer.
type Buffer struct {
	events   []Event
	capacity int
	next     int // the oldest retained event once the ring is full
	total    uint64
}

// NewBuffer returns a ring holding the last capacity events (1024 when
// capacity is not positive).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Buffer{events: make([]Event, 0, min(capacity, 1024)), capacity: capacity}
}

// Reset empties the ring, keeping its capacity and storage.
func (b *Buffer) Reset() {
	b.events = b.events[:0]
	b.next, b.total = 0, 0
}

// Append records one event, evicting the oldest when full.
func (b *Buffer) Append(e Event) {
	b.total++
	if len(b.events) < b.capacity {
		b.events = append(b.events, e)
		return
	}
	b.events[b.next] = e
	if b.next++; b.next == len(b.events) {
		b.next = 0
	}
}

// Total returns how many events were ever recorded (including
// evicted ones).
func (b *Buffer) Total() uint64 { return b.total }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	return append(out, b.events[:b.next]...)
}

// Dump writes up to max trailing events (0 = all retained) to w.
func (b *Buffer) Dump(w io.Writer, max int) {
	evs := b.Events()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	for _, e := range evs {
		fmt.Fprintln(w, e)
	}
}

// CountKind returns how many retained events have the kind. Order is
// irrelevant for counting, so the ring is scanned in place rather than
// through the copying Events accessor.
func (b *Buffer) CountKind(k Kind) int {
	n := 0
	for i := range b.events {
		if b.events[i].Kind == k {
			n++
		}
	}
	return n
}
