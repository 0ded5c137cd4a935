// Package runner is the deterministic parallel execution engine for
// independent simulation runs. Every campaign, soak wave, and
// experiment in this repository is a matrix of runs that share no
// state: each builds its own machine, executes the single-threaded
// discrete-event loop, and produces a result keyed by its position in
// the matrix. The engine fans those runs across a bounded worker pool
// while keeping every byte of downstream output identical to the
// serial engine:
//
//   - Jobs are integer keys 0..Jobs-1, claimed in ascending order from
//     a shared counter. Callers store each job's result in a pre-sized
//     keyed slot (Map does this for them), so the merge order after
//     the pool drains is the key order — canonical regardless of
//     completion order.
//   - Worker indexes are stable and dense (0..Workers()-1), so callers
//     can pool expensive per-run artifacts (built workloads, telemetry
//     registries, invariant checkers) per worker instead of
//     reallocating them per run: a worker executes one job at a time,
//     never concurrently with itself.
//   - The first job error cancels all jobs not yet claimed; jobs
//     already running complete. Because keys are claimed in ascending
//     order and job functions are deterministic, the lowest-keyed
//     error is the same error the serial engine would have returned,
//     and Run returns exactly that one.
//
// Parallel == 1 bypasses the pool entirely — no goroutines, no
// channels — and is byte-for-byte today's serial path. Parallel <= 0
// uses GOMAXPROCS.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Config shapes one pool invocation.
type Config struct {
	// Jobs is the total job count; keys are 0..Jobs-1.
	Jobs int
	// Parallel is the requested worker count: 1 runs serially inline,
	// <= 0 uses GOMAXPROCS, anything else is clamped to Jobs.
	Parallel int
}

// Workers resolves the effective worker count: Parallel with defaults
// applied, clamped to [1, Jobs]. Callers sizing per-worker artifact
// pools should use this, not Parallel.
func (c Config) Workers() int {
	p := c.Parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > c.Jobs {
		p = c.Jobs
	}
	if p < 1 {
		p = 1
	}
	return p
}

// sequence is the pool's claim source: job keys 0..n-1 handed out in
// ascending order from a shared atomic counter. Safe for concurrent
// claims; the ascending order is what makes the pool's lowest-keyed
// error match the serial engine's first failure.
type sequence struct {
	next atomic.Int64
	n    int64
}

// newSequence returns a sequence over keys 0..n-1.
func newSequence(n int) *sequence {
	return &sequence{n: int64(n)}
}

// claim returns the next unclaimed key in ascending order, or false
// when every key is claimed.
func (s *sequence) claim() (int, bool) {
	j := s.next.Add(1) - 1
	if j >= s.n {
		return 0, false
	}
	return int(j), true
}

// PanicError is a panic recovered from a job function, converted into
// an ordinary job error: the pool must never lose a whole campaign's
// results (or crash the coordinating process) because one run's
// simulation hit a bug. It carries the job key and the goroutine stack
// at the panic site, and is returned by Run/Map under the same
// lowest-keyed rule as any other job error.
type PanicError struct {
	// Job is the job key whose function panicked.
	Job int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Job, e.Value)
}

// call runs fn(job, worker), converting a panic into a *PanicError.
func call(fn func(job, worker int) error, job, worker int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Job: job, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(job, worker)
}

// Run executes fn(job, worker) for every job key. The worker index
// identifies which pool slot is calling (always 0 when serial), so fn
// may freely mutate per-worker state indexed by it. The first error
// cancels every job not yet claimed and is returned; it is always the
// lowest-keyed error, which is the error the serial loop would have
// stopped on. A panic inside fn is recovered into a *PanicError
// carrying the job key and stack, and follows the same rule.
func Run(cfg Config, fn func(job, worker int) error) error {
	n := cfg.Jobs
	if n <= 0 {
		return nil
	}
	if cfg.Workers() == 1 {
		for j := 0; j < n; j++ {
			if err := call(fn, j, 0); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	claims := newSequence(n)
	// One slot per job: workers write disjoint elements, no locking.
	errs := make([]error, n)
	for w := 0; w < cfg.Workers(); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				j, ok := claims.claim()
				if !ok || stop.Load() {
					return
				}
				if err := call(fn, j, worker); err != nil {
					errs[j] = err
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	// Keys below the lowest error were claimed earlier and completed
	// without error (fn is deterministic), so this matches the serial
	// engine's first failure.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn for every job key and collects the results in a keyed
// slice: out[j] is job j's value, in key order regardless of which
// worker produced it or when. Jobs cancelled by an earlier error leave
// their slot at the zero value, and the error returned follows Run's
// lowest-key rule.
func Map[T any](cfg Config, fn func(job, worker int) (T, error)) ([]T, error) {
	out := make([]T, cfg.Jobs)
	err := Run(cfg, func(j, w int) error {
		v, err := fn(j, w)
		if err != nil {
			return err
		}
		out[j] = v
		return nil
	})
	return out, err
}
