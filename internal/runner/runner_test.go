package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	cases := []struct {
		jobs, parallel, min, max int
	}{
		{10, 1, 1, 1},
		{10, 4, 4, 4},
		{2, 8, 2, 2},   // clamped to jobs
		{10, 0, 1, 10}, // GOMAXPROCS, whatever it is, clamped to jobs
		{0, 4, 1, 1},
	}
	for _, c := range cases {
		got := Config{Jobs: c.jobs, Parallel: c.parallel}.Workers()
		if got < c.min || got > c.max {
			t.Errorf("Workers(jobs=%d, parallel=%d) = %d, want in [%d,%d]",
				c.jobs, c.parallel, got, c.min, c.max)
		}
	}
}

// TestMapKeyedSlots checks that results land at their job key for every
// pool width, identical to the serial engine's output.
func TestMapKeyedSlots(t *testing.T) {
	const jobs = 64
	want := make([]int, jobs)
	for j := range want {
		want[j] = j * j
	}
	for _, parallel := range []int{1, 2, 4, 8, 0} {
		got, err := Map(Config{Jobs: jobs, Parallel: parallel}, func(j, w int) (int, error) {
			return j * j, nil
		})
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("parallel %d: slot %d = %d, want %d", parallel, j, got[j], want[j])
			}
		}
	}
}

// TestEveryJobRunsOnce counts invocations per key under contention.
func TestEveryJobRunsOnce(t *testing.T) {
	const jobs = 200
	var counts [jobs]atomic.Int64
	err := Run(Config{Jobs: jobs, Parallel: 8}, func(j, w int) error {
		counts[j].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range counts {
		if n := counts[j].Load(); n != 1 {
			t.Errorf("job %d ran %d times", j, n)
		}
	}
}

// TestWorkerIndexBounds verifies worker indexes stay dense within
// Workers(), the contract per-worker artifact pools rely on.
func TestWorkerIndexBounds(t *testing.T) {
	cfg := Config{Jobs: 100, Parallel: 5}
	limit := cfg.Workers()
	var bad atomic.Int64
	err := Run(cfg, func(j, w int) error {
		if w < 0 || w >= limit {
			bad.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Errorf("%d job(s) saw a worker index outside [0,%d)", bad.Load(), limit)
	}
}

// TestErrorIsLowestKeyed makes the error rule concrete: whichever
// worker fails first, the returned error is the lowest failing key's —
// exactly what the serial loop returns.
func TestErrorIsLowestKeyed(t *testing.T) {
	fail := map[int]bool{7: true, 23: true, 61: true}
	for _, parallel := range []int{1, 2, 8} {
		err := Run(Config{Jobs: 64, Parallel: parallel}, func(j, w int) error {
			if fail[j] {
				return fmt.Errorf("job %d failed", j)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Errorf("parallel %d: err = %v, want job 7's", parallel, err)
		}
	}
}

// TestCancellationSkipsQueuedJobs: after the first error, jobs not yet
// claimed must never start.
func TestCancellationSkipsQueuedJobs(t *testing.T) {
	const jobs = 10_000
	var ran atomic.Int64
	boom := errors.New("boom")
	err := Run(Config{Jobs: jobs, Parallel: 4}, func(j, w int) error {
		ran.Add(1)
		if j == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= jobs {
		t.Errorf("all %d jobs ran despite an early error", n)
	} else {
		t.Logf("ran %d of %d jobs before cancellation", n, jobs)
	}
}

// TestSerialStopsAtFirstError pins the Parallel==1 inline path.
func TestSerialStopsAtFirstError(t *testing.T) {
	var ran int
	err := Run(Config{Jobs: 100, Parallel: 1}, func(j, w int) error {
		ran++
		if j == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Errorf("serial path ran %d jobs (err %v), want exactly 4", ran, err)
	}
}

// TestPanicBecomesTypedError: a panicking job must surface as a
// *PanicError carrying the job key and stack instead of crashing the
// process, on both the serial and pooled paths, and it obeys the
// lowest-keyed rule like any other job error.
func TestPanicBecomesTypedError(t *testing.T) {
	for _, parallel := range []int{1, 2, 8} {
		err := Run(Config{Jobs: 64, Parallel: parallel}, func(j, w int) error {
			if j == 9 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallel %d: err = %v (%T), want *PanicError", parallel, err, err)
		}
		if pe.Job != 9 {
			t.Errorf("parallel %d: PanicError.Job = %d, want 9", parallel, pe.Job)
		}
		if pe.Value != "kaboom" {
			t.Errorf("parallel %d: PanicError.Value = %v, want kaboom", parallel, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("parallel %d: PanicError.Stack is empty", parallel)
		}
		if want := "runner: job 9 panicked: kaboom"; pe.Error() != want {
			t.Errorf("parallel %d: Error() = %q, want %q", parallel, pe.Error(), want)
		}
	}
}

// TestPanicLowestKeyedVsError: a panic competes with ordinary errors
// under the same lowest-key rule.
func TestPanicLowestKeyedVsError(t *testing.T) {
	err := Run(Config{Jobs: 64, Parallel: 1}, func(j, w int) error {
		switch j {
		case 3:
			panic("first")
		case 7:
			return errors.New("later")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Job != 3 {
		t.Fatalf("err = %v, want job 3's *PanicError", err)
	}
}

// TestSequenceClaimsAscendingOnce: the pool's claim source hands out
// each key exactly once, in ascending order from a single goroutine.
func TestSequenceClaimsAscendingOnce(t *testing.T) {
	s := newSequence(5)
	for want := 0; want < 5; want++ {
		j, ok := s.claim()
		if !ok || j != want {
			t.Fatalf("claim() = %d,%v, want %d,true", j, ok, want)
		}
	}
	if _, ok := s.claim(); ok {
		t.Error("claim() after exhaustion returned ok")
	}
}

func TestZeroJobs(t *testing.T) {
	called := false
	if err := Run(Config{Jobs: 0, Parallel: 4}, func(j, w int) error {
		called = true
		return nil
	}); err != nil || called {
		t.Errorf("zero jobs: err=%v called=%v", err, called)
	}
}
