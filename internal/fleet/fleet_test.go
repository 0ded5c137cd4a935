package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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
	// payload), so their workers must heartbeat through them.
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

// runSq runs s across in-process workers that all serve s under chaos.
func runSq(cfg Config, s sqSpace, chaos ChaosConfig) *Report {
	return Run(cfg, &s, InProcSpawner(func() JobSpace { return &s }, chaos))
}

// testTimeout is the heartbeat timeout of the unit tests: three
// heartbeat periods, so a healthy worker is never killed as hung.
const testTimeout = 3 * HeartbeatPeriod

// fastCfg returns supervision timings tight enough for unit tests.
func fastCfg(workers int) Config {
	return Config{
		Workers:          workers,
		HeartbeatTimeout: testTimeout,
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
	schedule := func(seed uint64) []time.Duration {
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = RetryDelay(seed, 7, i+1, base, cap)
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(43)
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
	rep := runSq(fastCfg(4), sqSpace{N: n}, ChaosConfig{})
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
	rep := runSq(fastCfg(4), sqSpace{N: n}, ChaosConfig{Seed: 1, CrashPct: 100, MaxAttempt: 1})
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
	rep := runSq(fastCfg(2), sqSpace{N: n}, ChaosConfig{Seed: 2, StallPct: 100, MaxAttempt: 1, StallMs: 600})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if rep.Stats.WorkersKilledHung < 1 {
		t.Fatalf("WorkersKilledHung = %d, want >= 1", rep.Stats.WorkersKilledHung)
	}
}

// TestKillStormStallOutlastsTimeout: the stock storm's stalls must
// outlast the heartbeat timeout they are drawn for, or a stalled worker
// sleeps through the timeout and serves its job, and the storm loses
// its hang class.
func TestKillStormStallOutlastsTimeout(t *testing.T) {
	for _, hb := range []time.Duration{2 * HeartbeatPeriod, time.Second, 5 * time.Second} {
		c := KillStorm(11, hb)
		if c.StallPct == 0 || time.Duration(c.StallMs)*time.Millisecond <= hb {
			t.Errorf("KillStorm at -hb-timeout %v stalls %d%% of cells for %d ms; want some, each longer than the timeout", hb, c.StallPct, c.StallMs)
		}
	}
}

func TestFleetTornFrameFailsLoudly(t *testing.T) {
	const n = 4
	rep := runSq(fastCfg(2), sqSpace{N: n}, ChaosConfig{Seed: 3, TruncPct: 100, MaxAttempt: 1})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if rep.Stats.BadFrames < 1 {
		t.Fatalf("BadFrames = %d, want >= 1 (torn result frames must be counted)", rep.Stats.BadFrames)
	}
}

// TestFleetHeartbeatsKeepLongJobAlive: a job that runs three times the
// heartbeat timeout is slow, not hung. Its worker heartbeats through it,
// so it completes on its first attempt and nobody is killed.
func TestFleetHeartbeatsKeepLongJobAlive(t *testing.T) {
	const n = 2
	rep := runSq(fastCfg(2), sqSpace{N: n, Sleeps: []jobSleep{{Key: 0, Ms: int(3 * testTimeout / time.Millisecond)}}}, ChaosConfig{})
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	if s := rep.Stats; s.WorkersKilledHung != 0 || s.Retries != 0 || s.JobsDispatched != n {
		t.Fatalf("stats %+v: want no hung kills, no retries, one dispatch per job", s)
	}
}

func TestFleetPoisonJobQuarantined(t *testing.T) {
	const n = 6
	cfg := fastCfg(2)
	cfg.MaxAttempts = 3
	rep := runSq(cfg, sqSpace{N: n, FailKeys: []int{3}}, ChaosConfig{})
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
	rep := runSq(cfg, sqSpace{N: 3, PanicKeys: []int{1}}, ChaosConfig{})
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
	rep := runSq(cfg, sqSpace{N: n}, ChaosConfig{
		Seed: 99, CrashPct: 30, StallPct: 10, TruncPct: 10,
		MaxAttempt: 2, StallMs: 600,
	})
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
		rep := Run(fastCfg(2), &sqSpace{N: n}, InProcSpawner(func() JobSpace { return &sqSpace{N: workerJobs} }, ChaosConfig{}))
		checkAllSquares(t, rep, n)
		mustClean(t, rep)
		s := rep.Stats
		if s.ResultsMerged != 0 || s.JobsDispatched != 0 {
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

// TestFleetNeverReadyWorkerTimesOut: a worker that never sends its
// ready frame — silent, or heartbeating instead — is failed within the
// heartbeat timeout of its spawn and counts against the spawn budget,
// so the run degrades to in-process execution instead of waiting
// forever.
func TestFleetNeverReadyWorkerTimesOut(t *testing.T) {
	const n = 4
	for name, serve := range map[string]func(int, io.Reader, io.Writer) error{
		"silent": func(_ int, r io.Reader, _ io.Writer) error {
			_, err := io.Copy(io.Discard, r) // until killed
			return err
		},
		"heartbeats only": func(_ int, _ io.Reader, w io.Writer) error {
			for WriteFrame(w, "heartbeat", nil) == nil { // until killed
				time.Sleep(HeartbeatPeriod / 10)
			}
			return nil
		},
	} {
		cfg := fastCfg(2)
		cfg.HeartbeatTimeout = 50 * time.Millisecond
		done := make(chan *Report, 1)
		go func() { done <- Run(cfg, &sqSpace{N: n}, pipeSpawner(serve)) }()
		select {
		case rep := <-done:
			checkAllSquares(t, rep, n)
			mustClean(t, rep)
			if s := rep.Stats; !s.Degraded || s.InlineMerged != n || s.WorkersKilledHung+s.BadFrames == 0 {
				t.Errorf("%s: stats %+v: want workers failed before ready and every job merged in-process", name, s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: fleet.Run still waiting on workers that never sent ready", name)
		}
	}
}

// TestFleetRejectsReplyForAnotherJob: a reply names the job its worker
// was given. A joberr for a key outside the space, a result for the
// other job, and a result from a worker given no job are each a bad
// frame that fails the worker; honest replacements then finish every
// job.
func TestFleetRejectsReplyForAnotherJob(t *testing.T) {
	const n = 2
	space := &sqSpace{N: n}
	spawn := pipeSpawner(func(id int, r io.Reader, w io.Writer) error {
		br := bufio.NewReader(r)
		switch id {
		case 0, 1:
			WriteFrame(w, "ready", readyPayload{Jobs: n})
			var job jobPayload
			if typ, data, err := ReadFrame(br); err != nil || typ != "job" || json.Unmarshal(data, &job) != nil {
				return fmt.Errorf("worker %d got no job frame", id)
			}
			if id == 0 {
				WriteFrame(w, "joberr", replyPayload{Key: 99, Error: "not my job"})
			} else {
				WriteFrame(w, "result", replyPayload{Key: n - 1 - job.Key, Payload: []byte(`{"sq":-1}`)})
			}
		case 2:
			WriteFrame(w, "result", replyPayload{Key: -1, Payload: []byte(`{}`)})
		default:
			return WorkerMain(br, w, space, ChaosConfig{})
		}
		_, err := io.Copy(io.Discard, br) // until killed
		return err
	})
	rep := Run(fastCfg(2), space, spawn)
	checkAllSquares(t, rep, n)
	mustClean(t, rep)
	// Worker 2 always sends its reply; of workers 0 and 1, at least the
	// first to be ready is handed a job to answer wrongly.
	if s := rep.Stats; s.BadFrames < 2 || s.Degraded {
		t.Fatalf("stats %+v: want a bad frame per foreign reply and the jobs done by workers", s)
	}
}

// TestWorkerMainRejectsBadHandshake: a worker announces itself with its
// ready frame, then accepts only job and shutdown frames. A frame from
// a coordinator of the previous wire version (which opened with a
// config frame) fails on the version, and a current-version frame of
// any other type fails by name.
func TestWorkerMainRejectsBadHandshake(t *testing.T) {
	var old bytes.Buffer
	body := `{"v":1,"type":"config","data":{"heartbeat_ms":100}}`
	binary.Write(&old, binary.BigEndian, uint32(len(body)))
	old.WriteString(body)
	var cur bytes.Buffer
	if err := WriteFrame(&cur, "config", nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in   *bytes.Buffer
		want string
	}{{&old, "version skew"}, {&cur, `unexpected frame "config"`}} {
		var out bytes.Buffer
		err := WorkerMain(c.in, &out, &sqSpace{N: 3}, ChaosConfig{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("err = %v, want mention of %q", err, c.want)
		}
		typ, data, rerr := ReadFrame(&out)
		if rerr != nil || typ != "ready" || string(data) != `{"jobs":3}` {
			t.Errorf("first frame out = %q %s (%v), want ready with the job count", typ, data, rerr)
		}
	}
}
