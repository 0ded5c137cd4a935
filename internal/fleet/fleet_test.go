package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// sqSpace is the test job space: payload is a pure function of the
// key, with designated poison and panic keys. It keeps no state, so
// every in-process worker may serve the same instance.
type sqSpace struct {
	N         int
	FailKeys  []int
	PanicKeys []int
	// Sleeps makes designated keys slow (every attempt, deterministic
	// payload) — the raw material for speculative-retry tests.
	Sleeps []jobSleep
}

type jobSleep struct {
	Key int
	Ms  int
}

func (s *sqSpace) NumJobs() int { return s.N }

func (s *sqSpace) Run(job, worker int) ([]byte, error) {
	for _, k := range s.FailKeys {
		if k == job {
			return nil, fmt.Errorf("poison job %d", job)
		}
	}
	for _, k := range s.PanicKeys {
		if k == job {
			panic(fmt.Sprintf("panic job %d", job))
		}
	}
	for _, sl := range s.Sleeps {
		if sl.Key == job {
			time.Sleep(time.Duration(sl.Ms) * time.Millisecond)
		}
	}
	return []byte(fmt.Sprintf(`{"sq":%d}`, job*job)), nil
}

// runSq runs s across in-process workers that all serve s.
func runSq(cfg Config, s sqSpace) *Report {
	return Run(cfg, &s, InProcSpawner(func() JobSpace { return &s }))
}

// fastCfg returns supervision timings tight enough for unit tests.
func fastCfg(workers int) Config {
	return Config{
		Workers:          workers,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 120 * time.Millisecond,
		JobTimeout:       5 * time.Second,
		BackoffBase:      2 * time.Millisecond,
		BackoffCap:       10 * time.Millisecond,
	}
}

func mustClean(t *testing.T, rep *Report) {
	t.Helper()
	for _, v := range rep.Violations {
		t.Errorf("audit violation: %s", v)
	}
}

func checkAllSquares(t *testing.T, rep *Report, n int) {
	t.Helper()
	if rep.Jobs != n {
		t.Fatalf("Jobs = %d, want %d", rep.Jobs, n)
	}
	for k := 0; k < n; k++ {
		if !rep.Done[k] {
			t.Fatalf("job %d not done", k)
		}
		want := fmt.Sprintf(`{"sq":%d}`, k*k)
		if string(rep.Payloads[k]) != want {
			t.Fatalf("job %d payload = %s, want %s", k, rep.Payloads[k], want)
		}
	}
}

func TestRetryScheduleDeterministic(t *testing.T) {
	base, cap := 10*time.Millisecond, 200*time.Millisecond
	a := RetrySchedule(42, 7, 8, base, cap)
	b := RetrySchedule(42, 7, 8, base, cap)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := RetrySchedule(43, 7, 8, base, cap)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every delay sits in the exponential window [d/2, d], capped.
	d := base
	for i, got := range a {
		if got < d/2 || got > d {
			t.Fatalf("retry %d delay %v outside [%v, %v]", i+1, got, d/2, d)
		}
		if d < cap {
			d *= 2
			if d > cap {
				d = cap
			}
		}
	}
}

func TestFleetCleanRun(t *testing.T) {
	const n = 20
	rep := runSq(fastCfg(4), sqSpace{N: n})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if !rep.Complete() {
		t.Fatal("clean run not Complete")
	}
	if rep.Stats.ResultsMerged != n || rep.Stats.Retries != 0 {
		t.Fatalf("stats: %+v", rep.Stats)
	}
}

func TestFleetCrashStormCompletesViaRetry(t *testing.T) {
	const n = 8
	cfg := fastCfg(4)
	cfg.Chaos = ChaosConfig{Seed: 1, CrashPct: 100, MaxAttempt: 1}
	rep := runSq(cfg, sqSpace{N: n})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if rep.Stats.WorkerCrashes < n {
		t.Fatalf("WorkerCrashes = %d, want >= %d (every first attempt crashes)", rep.Stats.WorkerCrashes, n)
	}
	if rep.Stats.Retries < n {
		t.Fatalf("Retries = %d, want >= %d", rep.Stats.Retries, n)
	}
}

func TestFleetStallDetectedAsHang(t *testing.T) {
	const n = 4
	cfg := fastCfg(2)
	cfg.Chaos = ChaosConfig{Seed: 2, StallPct: 100, MaxAttempt: 1, StallMs: 400}
	rep := runSq(cfg, sqSpace{N: n})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if rep.Stats.WorkersKilledHung < 1 {
		t.Fatalf("WorkersKilledHung = %d, want >= 1", rep.Stats.WorkersKilledHung)
	}
}

func TestFleetTornFrameFailsLoudly(t *testing.T) {
	const n = 4
	cfg := fastCfg(2)
	cfg.Chaos = ChaosConfig{Seed: 3, TruncPct: 100, MaxAttempt: 1}
	rep := runSq(cfg, sqSpace{N: n})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if rep.Stats.BadFrames < 1 {
		t.Fatalf("BadFrames = %d, want >= 1 (torn result frames must be counted)", rep.Stats.BadFrames)
	}
}

func TestFleetSlowJobSpeculatedAndDeduplicated(t *testing.T) {
	// Job 0 is slow (every attempt): past JobTimeout it is speculatively
	// retried on an idle worker, and because job 1 is even slower the
	// run is still alive when BOTH job-0 results land — the second one
	// must be deduplicated and byte-compared against the first.
	const n = 2
	cfg := fastCfg(4)
	cfg.JobTimeout = 50 * time.Millisecond
	cfg.HeartbeatTimeout = 5 * time.Second // slow, not hung: never kill
	rep := runSq(cfg, sqSpace{
		N:      n,
		Sleeps: []jobSleep{{Key: 0, Ms: 150}, {Key: 1, Ms: 700}},
	})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if rep.Stats.SpeculativeRetries < 1 {
		t.Fatalf("SpeculativeRetries = %d, want >= 1", rep.Stats.SpeculativeRetries)
	}
	if rep.Stats.DuplicatesDropped < 1 {
		t.Fatalf("DuplicatesDropped = %d, want >= 1 (the slow original must race the copy)", rep.Stats.DuplicatesDropped)
	}
	if rep.Stats.DuplicateMismatches != 0 {
		t.Fatalf("DuplicateMismatches = %d, want 0", rep.Stats.DuplicateMismatches)
	}
}

func TestFleetPoisonJobQuarantined(t *testing.T) {
	const n = 6
	cfg := fastCfg(2)
	cfg.MaxAttempts = 3
	rep := runSq(cfg, sqSpace{N: n, FailKeys: []int{3}})
	mustClean(t, rep)
	if rep.Complete() {
		t.Fatal("run with a poison job must not be Complete")
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want exactly job 3", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Key != 3 || q.Attempts != 3 || len(q.Errs) != 3 {
		t.Fatalf("quarantine = %+v, want key 3, 3 attempts, 3 errors", q)
	}
	for k := 0; k < n; k++ {
		if k == 3 {
			if rep.Done[k] {
				t.Fatal("poison job marked done")
			}
			continue
		}
		if !rep.Done[k] {
			t.Fatalf("job %d not done", k)
		}
	}
}

func TestFleetPanicJobQuarantinedWithStack(t *testing.T) {
	cfg := fastCfg(2)
	cfg.MaxAttempts = 2
	rep := runSq(cfg, sqSpace{N: 3, PanicKeys: []int{1}})
	mustClean(t, rep)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != 1 {
		t.Fatalf("Quarantined = %v, want job 1", rep.Quarantined)
	}
	if errs := rep.Quarantined[0].Errs; len(errs) == 0 || !strings.Contains(errs[0], "panicked") {
		t.Fatalf("quarantine errors %q do not mention the panic", errs)
	}
}

func TestFleetMixedChaosExactOnceAccounting(t *testing.T) {
	const n = 16
	cfg := fastCfg(4)
	cfg.MaxAttempts = 6
	cfg.Chaos = ChaosConfig{
		Seed: 99, CrashPct: 30, StallPct: 10, TruncPct: 10, SlowPct: 10,
		MaxAttempt: 2, StallMs: 300, SlowMs: 30,
	}
	rep := runSq(cfg, sqSpace{N: n})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if !rep.Complete() {
		t.Fatalf("chaos run with attempts budget above MaxAttempt must complete; quarantined %v", rep.Quarantined)
	}
}

func TestFleetDegradesInProcessWhenSpawnsFail(t *testing.T) {
	const n = 10
	badSpawn := func(id int) (Transport, error) { return nil, fmt.Errorf("no fork for you") }
	rep := Run(fastCfg(3), &sqSpace{N: n}, badSpawn)
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if !rep.Stats.Degraded {
		t.Fatal("Degraded not set after total spawn failure")
	}
	if rep.Stats.SpawnFailures < 3 {
		t.Fatalf("SpawnFailures = %d, want >= 3", rep.Stats.SpawnFailures)
	}
}

// TestFleetRejectsWorkerWithOtherSpace: a worker whose space has a
// different job count than the coordinator's fails its handshake. No
// job reaches it, so none of its results can merge; the failed
// handshakes spend the spawn budget and the coordinator finishes the
// space in-process.
func TestFleetRejectsWorkerWithOtherSpace(t *testing.T) {
	const n = 6
	for _, workerJobs := range []int{n - 1, n + 1} {
		rep := Run(fastCfg(2), &sqSpace{N: n}, InProcSpawner(func() JobSpace { return &sqSpace{N: workerJobs} }))
		checkAllSquares(t, rep, n)
		mustClean(t, rep)
		s := rep.Stats
		if s.ResultsReceived != 0 || s.ResultsMerged != 0 || s.JobsDispatched != 0 {
			t.Errorf("worker jobs %d: a mismatched worker was handed jobs: %+v", workerJobs, s)
		}
		if !s.Degraded || s.InlineMerged != n {
			t.Errorf("worker jobs %d: want every job merged in-process after degrading: %+v", workerJobs, s)
		}
		if s.BadFrames != s.WorkersSpawned || s.BadFrames == 0 {
			t.Errorf("worker jobs %d: %d bad frames for %d workers spawned, want one each", workerJobs, s.BadFrames, s.WorkersSpawned)
		}
	}
}

func TestFleetWorkersZeroRunsInline(t *testing.T) {
	const n = 7
	rep := Run(Config{Workers: 0}, &sqSpace{N: n, FailKeys: []int{2}}, nil)
	mustClean(t, rep)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != 2 {
		t.Fatalf("Quarantined = %v, want job 2", rep.Quarantined)
	}
	for k := 0; k < n; k++ {
		if k != 2 && !rep.Done[k] {
			t.Fatalf("job %d not done", k)
		}
	}
}

func TestWorkerMainRejectsBadHandshake(t *testing.T) {
	// First frame must be config.
	var in, out bytes.Buffer
	if err := WriteFrame(&in, "job", jobPayload{Key: 0}); err != nil {
		t.Fatal(err)
	}
	if err := WorkerMain(&in, &out, &sqSpace{N: 1}); err == nil || !strings.Contains(err.Error(), "want config") {
		t.Fatalf("err = %v, want handshake rejection", err)
	}
}
