// Package machine assembles simulated cores and the kernel into a
// runnable multicore system and drives the discrete-event execution
// loop. The loop always steps the core with the smallest local clock
// among those with runnable work, which preserves causality for
// cross-core interactions (futex wakes, shared-memory updates) without
// any host-level concurrency — every run is bit-deterministic for a
// given seed.
package machine

import (
	"fmt"
	"io"
	"strings"

	"limitsim/internal/cpu"
	"limitsim/internal/kernel"
	"limitsim/internal/pmu"
	"limitsim/internal/trace"
)

// CyclesPerNanosecond is the nominal clock rate used to convert
// simulated cycles to wall-clock time in reports (3 GHz).
const CyclesPerNanosecond = 3.0

// NsFromCycles converts simulated cycles to nanoseconds at the nominal
// clock.
func NsFromCycles(c uint64) float64 { return float64(c) / CyclesPerNanosecond }

// Config describes a machine.
type Config struct {
	// NumCores is the core count (default 4).
	NumCores int
	// PMU selects the per-core PMU feature set (default
	// pmu.DefaultFeatures: 4×48-bit counters, 31-bit writes).
	PMU pmu.Features
	// Kernel tunes the simulated OS (default kernel.DefaultConfig).
	Kernel kernel.Config
}

// DefaultConfig returns a 4-core machine with stock-2011 PMU features.
func DefaultConfig() Config {
	return Config{
		NumCores: 4,
		PMU:      pmu.DefaultFeatures(),
		Kernel:   kernel.DefaultConfig(),
	}
}

// Machine is a simulated multicore system.
type Machine struct {
	Cores []*cpu.Core
	Kern  *kernel.Kernel
}

// New builds a machine from cfg, applying defaults for zero fields.
func New(cfg Config) *Machine {
	if cfg.NumCores <= 0 {
		cfg.NumCores = 4
	}
	if cfg.PMU.NumCounters == 0 {
		cfg.PMU = pmu.DefaultFeatures()
	}
	if cfg.Kernel.Quantum == 0 {
		cfg.Kernel = kernel.DefaultConfig()
	}
	cores := make([]*cpu.Core, cfg.NumCores)
	for i := range cores {
		cores[i] = cpu.NewCore(i, cfg.PMU)
	}
	return &Machine{Cores: cores, Kern: kernel.New(cfg.Kernel, cores)}
}

// RunLimits bounds a Run call. Zero fields mean "unbounded".
type RunLimits struct {
	// MaxCycles stops the run once every core clock is at or beyond
	// this cycle.
	MaxCycles uint64
	// MaxSteps stops after this many executed instructions (a runaway
	// guard for tests).
	MaxSteps uint64
}

// RunResult summarizes a Run.
type RunResult struct {
	// Cycles is the final maximum core clock.
	Cycles uint64
	// Steps is the number of instructions executed (a Compute block
	// counts as one).
	Steps uint64
	// AllDone reports whether every thread terminated.
	AllDone bool
	// Deadlocked reports that threads remained but none could ever run
	// (blocked forever).
	Deadlocked bool
	// Faults carries descriptions of faulted threads.
	Faults []string
	// Err is non-nil when the run faulted or deadlocked; it is always
	// a *FaultError carrying the faulting threads and the tail of the
	// kernel trace ring (if one was attached).
	Err error
}

func (r RunResult) String() string {
	return fmt.Sprintf("cycles=%d steps=%d done=%v deadlock=%v faults=%d",
		r.Cycles, r.Steps, r.AllDone, r.Deadlocked, len(r.Faults))
}

// FaultError describes a run that ended badly: one or more threads
// faulted, or every remaining thread blocked forever. It carries the
// kernel's scheduling/interrupt trace tail (when a tracer was
// attached) so the events leading up to the failure are diagnosable
// without rerunning.
type FaultError struct {
	// Faults are the kernel's fault descriptions, one per dead thread.
	Faults []string
	// ThreadIDs identifies the faulted threads.
	ThreadIDs []int
	// Deadlocked reports that live threads remained but none could run.
	Deadlocked bool
	// Trace is the tail of the kernel trace ring at the time of death
	// (nil when no tracer was attached).
	Trace []trace.Event
}

// Error summarizes the failure in one line.
func (e *FaultError) Error() string {
	switch {
	case len(e.Faults) > 0 && e.Deadlocked:
		return fmt.Sprintf("machine: %d thread(s) faulted and remaining threads deadlocked: %s",
			len(e.Faults), strings.Join(e.Faults, "; "))
	case len(e.Faults) > 0:
		return fmt.Sprintf("machine: %d thread(s) faulted: %s",
			len(e.Faults), strings.Join(e.Faults, "; "))
	default:
		return "machine: deadlock: threads remain but none can run"
	}
}

// DumpTrace writes the captured trace tail (up to max events; 0 means
// all) in the trace package's standard format, or a hint when no
// tracer was attached.
func (e *FaultError) DumpTrace(w io.Writer, max int) {
	if len(e.Trace) == 0 {
		fmt.Fprintln(w, "  (no trace ring attached; attach one with Kernel.SetTracer)")
		return
	}
	evs := e.Trace
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	for _, ev := range evs {
		fmt.Fprintln(w, ev)
	}
}

// Run executes until all threads finish, a limit is hit, or the system
// deadlocks.
func (m *Machine) Run(limits RunLimits) RunResult {
	const never = ^uint64(0)
	var res RunResult
	// Cached next-action time per core (never = no runnable work). A
	// clean RunCore burst touches nothing outside its core, so only
	// that core's entry needs refreshing before the next pick; any
	// kernel activity (scheduling, wakes, exits) invalidates the lot.
	ats := make([]uint64, len(m.Cores))
	dirty := true
	last := -1
	// Mirror of the kernel's earliest sleeper deadline. It can change
	// only inside kernel code (the nanosleep syscall, which dirties the
	// pick) or when this loop wakes sleepers — both refresh it — so the
	// two per-burst sleeper queries become compares on a local.
	nextWake := never
	var lastNow uint64
	// Limits normalized to "never" sentinels so the per-burst checks
	// are single compares instead of enabled-and-exceeded pairs.
	maxCyc, maxSteps := limits.MaxCycles, limits.MaxSteps
	if maxCyc == 0 {
		maxCyc = never
	}
	if maxSteps == 0 {
		maxSteps = never
	}
	for {
		if res.Steps >= maxSteps {
			break
		}

		if dirty {
			// Threads can only finish inside kernel code, which also
			// sets dirty — so AllDone needs rechecking exactly here.
			if m.Kern.AllDone() {
				res.AllDone = true
				break
			}
			for i := range m.Cores {
				ats[i] = never
				if at, ok := m.Kern.NextActionTime(i); ok {
					ats[i] = at
				}
			}
			nextWake = never
			if at, ok := m.Kern.NextSleeperWake(); ok {
				nextWake = at
			}
			dirty = false
		} else if last >= 0 {
			// A clean burst left nothing outside its core changed, so
			// the thread is still current on its core and the core's
			// next action is simply its clock, which RunCore reported
			// on the way out.
			ats[last] = lastNow
		}

		// Pick the causally-next core (smallest next-action time, lowest
		// index on ties) and, in the same pass, the burst horizon: the
		// chosen core keeps winning the global pick until it reaches an
		// earlier core's next-action time (equality already loses) or
		// strictly passes a later core's (it wins those ties). That is
		// m2 — the smallest non-best time — when some core *below* best
		// attains it, else m2+1. lowTie tracks the "below best" part: a
		// displaced best always sits below its displacer, as does every
		// core scanned before it, so displacement sets it outright.
		best, bestT := -1, never
		m2 := never
		lowTie := false
		if len(ats) == 4 {
			// Unrolled four-core pick — the common shape — with the
			// scan's semantics restated directly: best is the
			// lowest-index minimum, m2 the minimum over the rest, and
			// lowTie whether some core below best attains m2 (below
			// best=0 nothing can; below best=3 something must, since
			// best=3 means the others are strictly larger). Idle cores
			// hold never, which loses every min and, when m2 itself is
			// never, leaves the horizon uncapped exactly as the scan's
			// skip does.
			a0, a1, a2, a3 := ats[0], ats[1], ats[2], ats[3]
			b, bt := 0, a0
			if a1 < bt {
				b, bt = 1, a1
			}
			if a2 < bt {
				b, bt = 2, a2
			}
			if a3 < bt {
				b, bt = 3, a3
			}
			if bt != never {
				best, bestT = b, bt
				switch b {
				case 0:
					m2 = min(a1, a2, a3)
				case 1:
					m2 = min(a0, a2, a3)
					lowTie = a0 == m2
				case 2:
					m2 = min(a0, a1, a3)
					lowTie = a0 == m2 || a1 == m2
				default:
					m2 = min(a0, a1, a2)
					lowTie = true
				}
			}
		} else {
			for i, at := range ats {
				if at == never {
					continue
				}
				if best == -1 {
					best, bestT = i, at
					continue
				}
				if at < bestT {
					if bestT < m2 {
						m2 = bestT
					}
					lowTie = true
					best, bestT = i, at
				} else if at < m2 {
					m2, lowTie = at, false
				}
			}
		}

		if best == -1 {
			// No core has runnable work; jump to the next sleeper wake.
			if nextWake == never {
				res.Deadlocked = true
				break
			}
			if nextWake >= maxCyc {
				break
			}
			m.Kern.WakeSleepersUpTo(nextWake)
			dirty = true
			continue
		}

		if bestT >= maxCyc {
			break
		}

		// Wake any sleepers whose deadline the chosen core has reached,
		// so they compete for cores at the right time. A wake can land
		// a thread on any core, so the cached times must be rebuilt and
		// the horizon inputs recomputed (relative to the already-chosen
		// core) before the burst starts.
		if bestT >= nextWake {
			if m.Kern.WakeSleepersUpTo(bestT) {
				m2, lowTie = never, false
				for i := range m.Cores {
					ats[i] = never
					at, ok := m.Kern.NextActionTime(i)
					if !ok {
						continue
					}
					ats[i] = at
					if i == best {
						continue
					}
					if at < m2 {
						m2, lowTie = at, i < best
					} else if at == m2 && i < best {
						lowTie = true
					}
				}
			}
			nextWake = never
			if at, ok := m.Kern.NextSleeperWake(); ok {
				nextWake = at
			}
		}

		// Cap the horizon by the next sleeper deadline and the cycle
		// limit. RunCore also hands back on every boundary that is not
		// quiet, so anything that could change another core's
		// next-action time re-picks first.
		horizon := never
		if m2 != never {
			horizon = m2
			if !lowTie {
				horizon++
			}
		}
		if nextWake < horizon {
			horizon = nextWake
		}
		if maxCyc < horizon {
			horizon = maxCyc
		}
		// maxSteps-res.Steps stays astronomically large in the unlimited
		// case, which RunCore's step budget treats the same as no bound.
		steps, now, clean := m.Kern.RunCore(best, horizon, maxSteps-res.Steps)
		res.Steps += steps
		dirty = !clean
		last, lastNow = best, now
	}

	// Flush a final frame for any live group-holding thread so a run
	// truncated by a limit (or deadlocked) still ends its frame stream
	// with complete cumulative state; a no-op when every thread exited.
	m.Kern.FlushFrames()
	m.Kern.PublishMetrics()

	for _, c := range m.Cores {
		if c.Now > res.Cycles {
			res.Cycles = c.Now
		}
	}
	res.Faults = m.Kern.Faults()
	if len(res.Faults) > 0 || res.Deadlocked {
		fe := &FaultError{Faults: res.Faults, Deadlocked: res.Deadlocked}
		for _, t := range m.Kern.FaultedThreads() {
			fe.ThreadIDs = append(fe.ThreadIDs, t.ID)
		}
		if tr := m.Kern.Tracer(); tr != nil {
			fe.Trace = tr.Events()
		}
		res.Err = fe
	}
	return res
}

// MustRun is Run but panics if any thread faulted or the system
// deadlocked — the common harness case where either indicates a bug in
// a generated program. Production paths should use Run and handle
// RunResult.Err instead.
func (m *Machine) MustRun(limits RunLimits) RunResult {
	res := m.Run(limits)
	if res.Err != nil {
		panic(res.Err.Error())
	}
	return res
}

// TotalGroundTruth sums an event's omniscient count over all cores and
// both rings.
func (m *Machine) TotalGroundTruth(ev pmu.Event) uint64 {
	var sum uint64
	for _, c := range m.Cores {
		sum += c.PMU.GroundTruthTotal(ev)
	}
	return sum
}

// GroundTruthRing sums an event's omniscient count over all cores for
// one ring.
func (m *Machine) GroundTruthRing(ev pmu.Event, ring pmu.Ring) uint64 {
	var sum uint64
	for _, c := range m.Cores {
		sum += c.PMU.GroundTruth(ev, ring)
	}
	return sum
}
