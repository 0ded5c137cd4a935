package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"limitsim/internal/runner"
)

// Config shapes one fleet run's supervision.
type Config struct {
	// Workers is the worker-process count. 0 (or negative) skips
	// spawning entirely and runs the whole space in-process — the same
	// degradation path taken when every spawn fails.
	Workers int
	// MaxAttempts bounds dispatches per job (first try + retries +
	// speculative copies); a job that fails them all is quarantined.
	// Default 5.
	MaxAttempts int
	// Seed drives retry jitter (and nothing else): the retry schedule
	// of every job is a pure function of (Seed, job, attempt).
	Seed uint64
	// HeartbeatEvery is the worker heartbeat period (default
	// HeartbeatPeriod).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a busy worker may go silent before
	// it is declared hung and killed (default 20×HeartbeatEvery).
	HeartbeatTimeout time.Duration
	// JobTimeout is the speculative-retry threshold: a job past it
	// whose worker still heartbeats is retried on another worker while
	// the original keeps running (default 60s; the duplicate result is
	// deduplicated by key).
	JobTimeout time.Duration
	// BackoffBase/BackoffCap bound the retry backoff window
	// (defaults 25ms / 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Chaos enables worker self-sabotage (the -chaos-workers mode).
	Chaos ChaosConfig
	// InlineParallel is the runner width of in-process execution,
	// whether chosen (Workers 0) or degraded to (0 = GOMAXPROCS).
	InlineParallel int
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = HeartbeatPeriod
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 20 * c.HeartbeatEvery
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 2 * time.Second
	}
	return c
}

// Job status. A job is settled when done or quarantined; the run ends
// when every job is settled.
const (
	jobPending = iota
	jobRunning
	jobDone
	jobQuarantined
)

type jobState struct {
	status     int
	attempts   int // dispatches so far (includes speculative copies)
	inflight   int // copies currently running on workers
	notBefore  time.Time
	speculated bool // a speculative copy was already issued
	errs       []string
	payload    []byte
}

type workerState struct {
	id      int
	tr      Transport
	ready   bool
	dead    bool
	busy    int // job key, -1 when idle
	attempt int
	started time.Time
	// lastBeat is the liveness clock: set at ready, refreshed by every
	// heartbeat and result.
	lastBeat time.Time
}

// event is one occurrence the coordinator loop processes: a frame from
// a worker, or its connection going down.
type event struct {
	worker int
	typ    string // frame type, or "down"
	data   json.RawMessage
	err    error
}

// Run executes space across a supervised fleet of workers from spawn
// and returns the keyed results; the coordinator runs space itself
// only when it degrades to in-process execution. Callers must check
// Report.Quarantined and Report.Violations before trusting Payloads.
func Run(cfg Config, space JobSpace, spawn Spawner) *Report {
	cfg = cfg.withDefaults()
	n := space.NumJobs()
	rep := &Report{
		Jobs:     n,
		Payloads: make([][]byte, n),
		Done:     make([]bool, n),
	}
	if n == 0 {
		return rep
	}

	c := &coordinator{
		cfg:     cfg,
		space:   space,
		rep:     rep,
		jobs:    make([]jobState, n),
		workers: map[int]*workerState{},
		events:  make(chan event, 64),
		stop:    make(chan struct{}),
		spawn:   spawn,
	}
	c.run()
	rep.finish()
	return rep
}

type coordinator struct {
	cfg           Config
	space         JobSpace
	rep           *Report
	jobs          []jobState
	workers       map[int]*workerState
	events        chan event
	stop          chan struct{}
	spawn         Spawner
	nextID        int
	spawnFailures int
}

func (c *coordinator) run() {
	defer c.teardown()

	if c.cfg.Workers <= 0 {
		c.runInline()
		return
	}
	for i := 0; i < c.cfg.Workers; i++ {
		c.spawnOne()
	}

	for !c.settled() {
		if c.liveWorkers() == 0 {
			// The whole fleet is down. Try to rebuild one worker; if the
			// spawn budget is spent or spawning keeps failing, degrade to
			// in-process execution for whatever is left.
			if !c.canSpawn() || !c.spawnOne() {
				c.runInline()
				return
			}
		}
		c.dispatch()
		c.waitEvent()
	}
}

// teardown shuts the fleet down: polite shutdown frames, then the
// hammer, then reaping. Reader goroutines unblock via the stop channel.
// The shutdown frames go out on goroutines because a worker mid-job is
// not reading its pipe — a synchronous write could block forever; the
// Kill right behind it unblocks any stuck write.
func (c *coordinator) teardown() {
	close(c.stop)
	var wg sync.WaitGroup
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		wg.Add(1)
		go func(tr Transport) {
			defer wg.Done()
			WriteFrame(tr, "shutdown", nil) // best-effort; racing Kill is fine
		}(w.tr)
	}
	for _, w := range c.workers {
		w.tr.Kill()
	}
	wg.Wait()
	for _, w := range c.workers {
		w.tr.Wait()
	}
}

func (c *coordinator) settled() bool {
	for k := range c.jobs {
		if s := c.jobs[k].status; s != jobDone && s != jobQuarantined {
			return false
		}
	}
	return true
}

func (c *coordinator) liveWorkers() int {
	n := 0
	for _, w := range c.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// canSpawn reports whether the spawn budget has room. The coordinator
// tolerates 2×Workers+2 failed spawns — spawn errors, and workers that
// die or fail the handshake before ready — before it stops replacing
// workers and degrades to in-process execution.
func (c *coordinator) canSpawn() bool {
	return c.spawnFailures <= 2*c.cfg.Workers+2
}

// spawnOne starts one worker: transport, config frame, reader
// goroutine. Returns false (and counts a spawn failure) if the spawn
// or the config write fails.
func (c *coordinator) spawnOne() bool {
	id := c.nextID
	c.nextID++
	tr, err := c.spawn(id)
	if err != nil {
		c.spawnFailures++
		c.rep.Stats.SpawnFailures++
		return false
	}
	w := &workerState{id: id, tr: tr, busy: -1, lastBeat: time.Now()}
	if err := WriteFrame(tr, "config", configPayload{
		HeartbeatMs: int(c.cfg.HeartbeatEvery / time.Millisecond),
		Chaos:       c.cfg.Chaos,
	}); err != nil {
		tr.Kill()
		tr.Wait()
		c.spawnFailures++
		c.rep.Stats.SpawnFailures++
		return false
	}
	c.workers[id] = w
	c.rep.Stats.WorkersSpawned++
	go c.read(w)
	return true
}

// read pumps one worker's frames into the event channel until its
// stream ends. A frame error (torn, skewed) is delivered as the down
// event's error so the loop can count it loudly.
func (c *coordinator) read(w *workerState) {
	br := bufio.NewReader(w.tr)
	for {
		typ, data, err := ReadFrame(br)
		ev := event{worker: w.id, typ: typ, data: data, err: err}
		if err != nil {
			ev.typ = "down"
		}
		select {
		case c.events <- ev:
		case <-c.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// dispatch hands eligible jobs to idle ready workers: pending jobs
// past their backoff first (lowest key), then — if a worker is still
// idle — a speculative copy of the lowest-keyed job that has exceeded
// JobTimeout on a still-heartbeating worker.
func (c *coordinator) dispatch() {
	now := time.Now()
	for _, w := range c.idleWorkers() {
		k, ok := c.nextPending(now)
		if !ok {
			k, ok = c.nextSpeculative(now)
			if ok {
				c.rep.Stats.SpeculativeRetries++
				c.jobs[k].speculated = true
			}
		}
		if !ok {
			return
		}
		c.sendJob(w, k)
	}
}

// idleWorkers returns ready idle workers in id order (deterministic
// iteration; maps randomize).
func (c *coordinator) idleWorkers() []*workerState {
	var out []*workerState
	for id := 0; id < c.nextID; id++ {
		if w := c.workers[id]; w != nil && w.ready && !w.dead && w.busy < 0 {
			out = append(out, w)
		}
	}
	return out
}

func (c *coordinator) nextPending(now time.Time) (int, bool) {
	for k := range c.jobs {
		j := &c.jobs[k]
		if j.status == jobPending && !now.Before(j.notBefore) {
			return k, true
		}
	}
	return 0, false
}

func (c *coordinator) nextSpeculative(now time.Time) (int, bool) {
	for k := range c.jobs {
		j := &c.jobs[k]
		if j.status != jobRunning || j.speculated || j.attempts >= c.cfg.MaxAttempts {
			continue
		}
		for _, w := range c.workers {
			if !w.dead && w.busy == k && now.Sub(w.started) > c.cfg.JobTimeout {
				return k, true
			}
		}
	}
	return 0, false
}

func (c *coordinator) sendJob(w *workerState, k int) {
	j := &c.jobs[k]
	attempt := j.attempts
	j.attempts++
	j.inflight++
	j.status = jobRunning
	w.busy = k
	w.attempt = attempt
	w.started = time.Now()
	w.lastBeat = w.started
	c.rep.Stats.JobsDispatched++
	if err := WriteFrame(w.tr, "job", jobPayload{Key: k, Attempt: attempt}); err != nil {
		// The pipe died under the write; the reader will deliver a down
		// event that requeues this copy. Nothing else to do here.
		return
	}
}

// waitEvent blocks for the next event or supervision deadline.
func (c *coordinator) waitEvent() {
	wait := c.nextDeadline()
	select {
	case ev := <-c.events:
		c.handle(ev)
	case <-time.After(wait):
	}
	c.checkTimeouts()
}

// nextDeadline bounds the wait: the earliest backoff expiry, heartbeat
// deadline, or speculation deadline, clamped to a coarse tick.
func (c *coordinator) nextDeadline() time.Duration {
	now := time.Now()
	wait := 250 * time.Millisecond
	upd := func(t time.Time) {
		if d := t.Sub(now); d < wait {
			if d < time.Millisecond {
				d = time.Millisecond
			}
			wait = d
		}
	}
	for k := range c.jobs {
		if c.jobs[k].status == jobPending && c.jobs[k].notBefore.After(now) {
			upd(c.jobs[k].notBefore)
		}
	}
	for _, w := range c.workers {
		if !w.dead && w.busy >= 0 {
			upd(w.lastBeat.Add(c.cfg.HeartbeatTimeout))
			upd(w.started.Add(c.cfg.JobTimeout))
		}
	}
	return wait
}

// checkTimeouts kills hung workers: busy, and silent past the
// heartbeat timeout. (Slow-but-beating workers are handled by
// speculative dispatch, not killed.)
func (c *coordinator) checkTimeouts() {
	now := time.Now()
	for _, w := range c.workers {
		if w.dead || w.busy < 0 {
			continue
		}
		if now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			c.rep.Stats.WorkersKilledHung++
			c.failWorker(w, fmt.Sprintf("hung: no heartbeat for %v", now.Sub(w.lastBeat).Round(time.Millisecond)))
			w.tr.Kill()
		}
	}
}

// failWorker marks a worker dead and requeues its in-flight job copy.
func (c *coordinator) failWorker(w *workerState, reason string) {
	if w.dead {
		return
	}
	w.dead = true
	if !w.ready {
		// Dying before the ready handshake is a spawn that never worked;
		// count it toward the budget so a worker that always crashes on
		// startup degrades to in-process instead of respawning forever.
		c.spawnFailures++
	}
	if k := w.busy; k >= 0 {
		w.busy = -1
		j := &c.jobs[k]
		j.inflight--
		j.errs = append(j.errs, fmt.Sprintf("attempt %d on worker %d: %s", w.attempt, w.id, reason))
		c.retryOrQuarantine(k)
	}
	// Keep the fleet at strength while unsettled jobs remain.
	if !c.settled() && c.liveWorkers() < c.cfg.Workers && c.canSpawn() {
		c.spawnOne()
	}
}

func (c *coordinator) retryOrQuarantine(k int) {
	j := &c.jobs[k]
	if j.status == jobDone || j.status == jobQuarantined {
		return
	}
	if j.inflight > 0 {
		// A sibling copy (speculation) is still running; let it decide.
		return
	}
	if j.attempts >= c.cfg.MaxAttempts {
		j.status = jobQuarantined
		c.rep.Quarantined = append(c.rep.Quarantined, Quarantine{
			Key: k, Attempts: j.attempts, Errs: append([]string(nil), j.errs...),
		})
		return
	}
	j.status = jobPending
	j.notBefore = time.Now().Add(RetryDelay(c.cfg.Seed, k, j.attempts, c.cfg.BackoffBase, c.cfg.BackoffCap))
	c.rep.Stats.Retries++
}

func (c *coordinator) handle(ev event) {
	w := c.workers[ev.worker]
	if w == nil || (w.dead && ev.typ != "down") {
		return
	}
	switch ev.typ {
	case "ready":
		// A worker that built another space than ours must never run a
		// job: its payloads would merge under our keys.
		var rdy readyPayload
		if err := json.Unmarshal(ev.data, &rdy); err != nil || rdy.Jobs != len(c.jobs) {
			c.badFrame(w, fmt.Sprintf("ready frame %s does not match the %d-job space", ev.data, len(c.jobs)))
			return
		}
		w.ready = true
		w.lastBeat = time.Now()
	case "heartbeat":
		w.lastBeat = time.Now()
	case "result":
		var res resultPayload
		if err := json.Unmarshal(ev.data, &res); err != nil {
			c.badFrame(w, fmt.Sprintf("undecodable result frame: %v", err))
			return
		}
		w.lastBeat = time.Now()
		c.completeJob(w, res.Key, []byte(res.Payload))
	case "joberr":
		var je jobErrPayload
		if err := json.Unmarshal(ev.data, &je); err != nil {
			c.badFrame(w, fmt.Sprintf("undecodable joberr frame: %v", err))
			return
		}
		w.lastBeat = time.Now()
		if w.busy == je.Key {
			w.busy = -1
		}
		j := &c.jobs[je.Key]
		j.inflight--
		j.errs = append(j.errs, fmt.Sprintf("attempt %d on worker %d: %s", je.Attempt, w.id, je.Error))
		c.retryOrQuarantine(je.Key)
	case "down":
		wasDead := w.dead
		if !wasDead {
			c.rep.Stats.WorkerCrashes++
			reason := "connection closed"
			if ev.err != nil && ev.err.Error() != "EOF" {
				reason = ev.err.Error()
			}
			if _, torn := ev.err.(*WireError); torn {
				c.rep.Stats.BadFrames++
			}
			c.failWorker(w, reason)
		}
		w.tr.Kill()
	default:
		c.badFrame(w, fmt.Sprintf("unexpected frame %q", ev.typ))
	}
}

// badFrame fails and kills a worker over a frame that broke the
// protocol. Before ready that counts against the spawn budget, like
// any worker that dies in its handshake.
func (c *coordinator) badFrame(w *workerState, reason string) {
	c.rep.Stats.BadFrames++
	c.failWorker(w, reason)
	w.tr.Kill()
}

// completeJob merges a result into its keyed slot, or deduplicates it
// if the key already settled (the speculative race / retried-job
// race). Duplicates are byte-compared against the winner: payloads are
// pure functions of the key, so a mismatch is a determinism violation
// the audit must surface.
func (c *coordinator) completeJob(w *workerState, k int, payload []byte) {
	if w.busy == k {
		w.busy = -1
	}
	if k < 0 || k >= len(c.jobs) {
		c.badFrame(w, fmt.Sprintf("result for job %d outside space [0,%d)", k, len(c.jobs)))
		return
	}
	c.rep.Stats.ResultsReceived++
	j := &c.jobs[k]
	j.inflight--
	switch j.status {
	case jobDone:
		c.rep.Stats.DuplicatesDropped++
		if !bytes.Equal(payload, j.payload) {
			c.rep.Stats.DuplicateMismatches++
		}
	case jobQuarantined:
		// The key was written off before this copy landed; accounting
		// already closed, so the late result is dropped as a duplicate
		// of the quarantine decision.
		c.rep.Stats.DuplicatesDropped++
	default:
		j.status = jobDone
		j.payload = payload
		c.rep.Payloads[k] = payload
		c.rep.Done[k] = true
		c.rep.Stats.ResultsMerged++
		c.rep.addWorkerMerge(w.id)
	}
}

// runInline executes every unsettled job in-process through the runner
// engine — the graceful-degradation path when no workers can run. Job
// errors here are deterministic (no process to crash), so a failing
// job goes straight to quarantine.
func (c *coordinator) runInline() {
	c.rep.Stats.Degraded = true
	var keys []int
	for k := range c.jobs {
		if c.jobs[k].status != jobDone && c.jobs[k].status != jobQuarantined {
			keys = append(keys, k)
		}
	}
	type inlineOut struct {
		payload []byte
		err     error
	}
	outs := make([]inlineOut, len(keys))
	runner.Run(runner.Config{Jobs: len(keys), Parallel: c.cfg.InlineParallel}, func(i, worker int) error {
		payload, err := c.space.Run(keys[i], worker)
		outs[i] = inlineOut{payload: payload, err: err}
		return nil
	})
	for i, k := range keys {
		j := &c.jobs[k]
		if outs[i].err != nil {
			j.attempts++
			j.errs = append(j.errs, fmt.Sprintf("attempt %d in-process: %v", j.attempts-1, outs[i].err))
			j.status = jobQuarantined
			c.rep.Quarantined = append(c.rep.Quarantined, Quarantine{
				Key: k, Attempts: j.attempts, Errs: append([]string(nil), j.errs...),
			})
			continue
		}
		j.status = jobDone
		j.payload = outs[i].payload
		c.rep.Payloads[k] = outs[i].payload
		c.rep.Done[k] = true
		c.rep.Stats.InlineMerged++
	}
}
