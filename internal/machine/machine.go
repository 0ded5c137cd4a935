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
	"slices"
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
	m := new(Machine)
	m.Reset(cfg)
	return m
}

// Reset returns m to exactly the machine New(cfg) builds: each core it
// keeps is reset in place (cpu.Core.Reset), so its caches, TLB,
// predictor and PMU keep their storage, cores are added or dropped to
// match cfg.NumCores, and the kernel is built afresh from cfg. A run on
// the reset machine is the run a new one gives. The zero Machine is a
// valid receiver.
func (m *Machine) Reset(cfg Config) {
	if cfg.NumCores <= 0 {
		cfg.NumCores = 4
	}
	if cfg.PMU.NumCounters == 0 {
		cfg.PMU = pmu.DefaultFeatures()
	}
	if cfg.Kernel.Quantum == 0 {
		cfg.Kernel = kernel.DefaultConfig()
	}
	kept := min(len(m.Cores), cfg.NumCores)
	m.Cores = slices.Grow(m.Cores[:kept], cfg.NumCores-kept)
	for _, c := range m.Cores {
		c.Reset(cfg.PMU)
	}
	for i := kept; i < cfg.NumCores; i++ {
		m.Cores = append(m.Cores, cpu.NewCore(i, cfg.PMU))
	}
	m.Kern = kernel.New(cfg.Kernel, m.Cores)
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
	// Err is non-nil when the run faulted, deadlocked or reached the
	// clock ceiling; it is always a *FaultError carrying the faulting
	// threads and the tail of the kernel trace ring (if one was
	// attached).
	Err error
}

func (r RunResult) String() string {
	return fmt.Sprintf("cycles=%d steps=%d done=%v deadlock=%v faults=%d",
		r.Cycles, r.Steps, r.AllDone, r.Deadlocked, len(r.Faults))
}

// FaultError describes a run that ended badly: one or more threads
// faulted, every remaining thread blocked forever, or a core's
// next-action time reached the clock ceiling. It carries the kernel's
// scheduling/interrupt trace tail (when a tracer was attached) so the
// events leading up to the failure are diagnosable without rerunning.
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
	// Ceiling, when non-zero, is the clock ceiling that core Core's
	// next-action time reached, stopping the run: the pick packs each
	// time with its core index into one uint64, and a time at or past
	// the ceiling does not fit.
	Ceiling uint64
	Core    int
}

// Error summarizes the failure in one line.
func (e *FaultError) Error() string {
	switch {
	case e.Ceiling != 0:
		return fmt.Sprintf("machine: core %d's next-action time reached the clock ceiling %d, which the core pick cannot order",
			e.Core, e.Ceiling)
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

// Run executes until all threads finish, a limit is hit, the system
// deadlocks, or a core's next-action time reaches the pick's ceiling
// (see pack).
func (m *Machine) Run(limits RunLimits) RunResult {
	var res RunResult
	// Cached pick key per core. A clean RunCore burst touches nothing
	// outside its core, so only that core's key needs refreshing before
	// the next pick; any kernel activity (scheduling, wakes, exits)
	// invalidates the lot.
	shift := keyShift(len(m.Cores))
	keys := make([]uint64, len(m.Cores))
	dirty := true
	last, over := -1, -1 // over: the core whose time did not pack
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
	for res.Steps < maxSteps {
		if dirty {
			// Threads can only finish inside kernel code, which also
			// sets dirty — so AllDone needs rechecking exactly here.
			if m.Kern.AllDone() {
				res.AllDone = true
				break
			}
			if over = m.fill(keys, shift); over >= 0 {
				break
			}
			nextWake = never
			if at, ok := m.Kern.NextSleeperWake(); ok {
				nextWake = at
			}
			dirty = false
		} else {
			// A clean burst left nothing outside its core changed, so
			// the thread is still current on its core and the core's
			// next action is simply its clock, which RunCore reported
			// on the way out.
			k, fits := pack(lastNow, last, shift)
			if !fits {
				over = last
				break
			}
			keys[last] = k
		}

		// The causally-next core holds the smallest key; the
		// second-smallest sets the burst horizon.
		first, second := smallest2(keys)
		if first == never {
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
		best, bestT := int(first&(1<<shift-1)), first>>shift
		if bestT >= maxCyc {
			break
		}

		// Wake any sleepers whose deadline the chosen core has reached,
		// so they compete for cores at the right time. A wake can land
		// a thread on any core, so the keys must be rebuilt and the
		// horizon recomputed against the other cores (the chosen core
		// stays chosen) before the burst starts.
		if bestT >= nextWake {
			if m.Kern.WakeSleepersUpTo(bestT) {
				if over = m.fill(keys, shift); over >= 0 {
					break
				}
				second = never
				for i, k := range keys {
					if i != best {
						second = min(second, k)
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
		// next-action time re-picks first. maxSteps-res.Steps stays
		// astronomically large in the unlimited case, which RunCore's
		// step budget treats the same as no bound.
		h := min(horizon(second, best, shift), nextWake, maxCyc)
		steps, now, clean := m.Kern.RunCore(best, h, maxSteps-res.Steps)
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
	if len(res.Faults) > 0 || res.Deadlocked || over >= 0 {
		fe := &FaultError{Faults: res.Faults, Deadlocked: res.Deadlocked}
		if over >= 0 {
			fe.Core, fe.Ceiling = over, never>>shift
		}
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

// fill rebuilds every core's key from the kernel. It returns the first
// core whose next-action time does not pack, or -1.
func (m *Machine) fill(keys []uint64, shift uint) int {
	for i := range keys {
		keys[i] = never
		if at, ok := m.Kern.NextActionTime(i); ok {
			var fits bool
			if keys[i], fits = pack(at, i, shift); !fits {
				return i
			}
		}
	}
	return -1
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
