package fleet

import (
	"bufio"
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
	// MaxAttempts bounds dispatches per job (first try + retries); a
	// job that fails them all is quarantined. Default 5.
	MaxAttempts int
	// Seed drives retry jitter (and nothing else): the retry schedule
	// of every job is a pure function of (Seed, job, attempt).
	Seed uint64
	// HeartbeatTimeout is how long a busy worker may go silent, and how
	// long a new one may take to send its ready frame, before it is
	// declared hung and killed (default 20×HeartbeatPeriod). Busy
	// workers beat every HeartbeatPeriod, so it must be at least twice
	// that.
	HeartbeatTimeout time.Duration
	// BackoffBase/BackoffCap bound the retry backoff window
	// (defaults 25ms / 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// InlineParallel is the runner width of in-process execution,
	// whether chosen (Workers 0) or degraded to (0 = GOMAXPROCS).
	InlineParallel int
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 20 * HeartbeatPeriod
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

// jobState is one job's supervision record. At most one copy of a job
// is in flight: a job is dispatched only while pending, and it is
// pending again only after its worker replied or failed.
type jobState struct {
	status    int
	attempts  int // dispatches so far
	notBefore time.Time
	errs      []string
}

type workerState struct {
	id      int
	tr      Transport
	ready   bool
	dead    bool
	busy    int // job key, -1 when idle
	attempt int
	// lastBeat is the liveness clock: set at spawn, refreshed by the
	// ready frame, every dispatch and every heartbeat.
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
// die, time out or fail the handshake before ready — before it stops
// replacing workers and degrades to in-process execution.
func (c *coordinator) canSpawn() bool {
	return c.spawnFailures <= 2*c.cfg.Workers+2
}

// spawnOne starts one worker and its reader goroutine; the worker
// speaks first, with its ready frame. Returns false (and counts a spawn
// failure) if the spawn fails.
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

// dispatch hands pending jobs past their backoff, lowest key first,
// to idle ready workers.
func (c *coordinator) dispatch() {
	now := time.Now()
	for _, w := range c.idleWorkers() {
		k, ok := c.nextPending(now)
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

func (c *coordinator) sendJob(w *workerState, k int) {
	j := &c.jobs[k]
	w.busy, w.attempt = k, j.attempts
	w.lastBeat = time.Now()
	j.attempts++
	j.status = jobRunning
	c.rep.Stats.JobsDispatched++
	// A write error means the pipe died under the write; the reader will
	// deliver a down event that requeues the job.
	WriteFrame(w.tr, "job", jobPayload{Key: k, Attempt: w.attempt})
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

// nextDeadline bounds the wait: the earliest backoff expiry or
// heartbeat deadline, clamped to a coarse tick.
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
		if w.watched() {
			upd(w.lastBeat.Add(c.cfg.HeartbeatTimeout))
		}
	}
	return wait
}

// watched reports whether w owes the coordinator a frame: its ready
// frame, or heartbeats while it runs a job.
func (w *workerState) watched() bool {
	return !w.dead && (!w.ready || w.busy >= 0)
}

// checkTimeouts kills hung workers: watched, and silent past the
// heartbeat timeout. A worker that never becomes ready dies here too,
// before ready, so it counts against the spawn budget.
func (c *coordinator) checkTimeouts() {
	now := time.Now()
	for _, w := range c.workers {
		if w.watched() && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			silent := "no heartbeat"
			if !w.ready {
				silent = "no ready frame"
			}
			c.rep.Stats.WorkersKilledHung++
			c.failWorker(w, fmt.Sprintf("hung: %s for %v", silent, now.Sub(w.lastBeat).Round(time.Millisecond)))
			w.tr.Kill()
		}
	}
}

// failWorker marks a worker dead and requeues its job, if it had one.
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
	if w.busy >= 0 {
		c.requeue(w, reason)
	}
	// Keep the fleet at strength while unsettled jobs remain.
	if !c.settled() && c.liveWorkers() < c.cfg.Workers && c.canSpawn() {
		c.spawnOne()
	}
}

// requeue records why w's job failed, frees w, and schedules the job's
// retry after its backoff — or quarantines it once its attempts are
// spent.
func (c *coordinator) requeue(w *workerState, reason string) {
	k := w.busy
	w.busy = -1
	j := &c.jobs[k]
	j.errs = append(j.errs, fmt.Sprintf("attempt %d on worker %d: %s", w.attempt, w.id, reason))
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
		// The ready frame comes first: beats must not stretch a new
		// worker's deadline for it.
		if !w.ready {
			c.badFrame(w, "heartbeat before the ready frame")
			return
		}
		w.lastBeat = time.Now()
	case "result", "joberr":
		// A reply must be for the one job this worker runs; no other copy
		// of any job is in flight, so another key is a protocol fault.
		var r replyPayload
		if err := json.Unmarshal(ev.data, &r); err != nil {
			c.badFrame(w, fmt.Sprintf("undecodable %s frame: %v", ev.typ, err))
			return
		}
		if w.busy < 0 || r.Key != w.busy {
			c.badFrame(w, fmt.Sprintf("%s frame for job %d from a worker running job %d", ev.typ, r.Key, w.busy))
			return
		}
		if ev.typ == "joberr" {
			c.requeue(w, r.Error)
			return
		}
		c.completeJob(w, r.Payload)
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

// completeJob merges the result of w's job into its keyed slot and
// frees w.
func (c *coordinator) completeJob(w *workerState, payload []byte) {
	k := w.busy
	w.busy = -1
	c.jobs[k].status = jobDone
	c.rep.Payloads[k] = payload
	c.rep.Done[k] = true
	c.rep.Stats.ResultsMerged++
	c.rep.addWorkerMerge(w.id)
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
		c.rep.Payloads[k] = outs[i].payload
		c.rep.Done[k] = true
		c.rep.Stats.InlineMerged++
	}
}
