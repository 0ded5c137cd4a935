package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"
)

// HeartbeatPeriod is how often a busy worker heartbeats unless the
// coordinator's Config.HeartbeatEvery says otherwise.
const HeartbeatPeriod = 100 * time.Millisecond

// Frame payload shapes. Every frame crossing the pipe is validated by
// ReadFrame (length, version, type) before these decode; a payload
// that then fails to decode is a protocol error, handled as a
// worker/coordinator failure, never a silent skip.
type configPayload struct {
	// HeartbeatMs is how often a busy worker must heartbeat.
	HeartbeatMs int `json:"heartbeat_ms"`
	// Chaos is the worker self-sabotage config (zero = disabled).
	Chaos ChaosConfig `json:"chaos"`
}

// readyPayload is the worker's half of the handshake: the size of the
// space it built, which the coordinator checks against its own.
type readyPayload struct {
	Jobs int `json:"jobs"`
}

type jobPayload struct {
	Key     int `json:"key"`
	Attempt int `json:"attempt"`
}

type resultPayload struct {
	Key     int             `json:"key"`
	Attempt int             `json:"attempt"`
	Payload json.RawMessage `json:"payload"`
}

type jobErrPayload struct {
	Key     int    `json:"key"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error"`
}

type heartbeatPayload struct {
	Key int `json:"key"`
	Seq int `json:"seq"`
}

// ErrChaosKill is returned by WorkerMain when worker self-chaos
// decides this worker dies abruptly. The process entry point turns it
// into an unclean exit; the in-process test spawner turns it into a
// snapped pipe. Either way the coordinator sees the same thing a
// SIGKILL produces: a dead connection with a job in flight.
var ErrChaosKill = errors.New("fleet: worker killed by self-chaos")

// WorkerMain is the worker side of the protocol: read the config
// frame, report space's size, then serve space's jobs until shutdown.
// It is transport-agnostic — limit-chaos -worker runs it over the real
// process's stdin/stdout, tests run it over in-memory pipes — and all
// chaos sabotage happens here, so a chaos worker misbehaves
// identically in both settings.
func WorkerMain(r io.Reader, w io.Writer, space JobSpace) error {
	br := bufio.NewReader(r)
	out := &frameWriter{w: w}

	typ, data, err := ReadFrame(br)
	if err != nil {
		return fmt.Errorf("fleet worker: reading config frame: %w", err)
	}
	if typ != "config" {
		return fmt.Errorf("fleet worker: first frame is %q, want config", typ)
	}
	var cfg configPayload
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("fleet worker: config frame: %w", err)
	}
	if err := out.write("ready", readyPayload{Jobs: space.NumJobs()}); err != nil {
		return err
	}

	hb := newHeartbeater(out, time.Duration(cfg.HeartbeatMs)*time.Millisecond)
	defer hb.stop()

	for {
		typ, data, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				return nil // coordinator hung up; a clean end of service
			}
			return fmt.Errorf("fleet worker: %w", err)
		}
		switch typ {
		case "job":
			var job jobPayload
			if err := json.Unmarshal(data, &job); err != nil {
				return fmt.Errorf("fleet worker: job frame: %w", err)
			}
			if err := serveJob(space, job, cfg.Chaos, out, hb); err != nil {
				return err
			}
		case "shutdown":
			return nil
		default:
			return fmt.Errorf("fleet worker: unexpected frame %q", typ)
		}
	}
}

// serveJob runs one job under the worker's chaos fate and writes the
// result (or sabotage) back.
func serveJob(space JobSpace, job jobPayload, chaos ChaosConfig, out *frameWriter, hb *heartbeater) error {
	switch chaos.fateFor(job.Key, job.Attempt) {
	case fateCrash:
		// Die without a word, job in flight — the SIGKILL shape.
		return ErrChaosKill
	case fateStall:
		// Hang: no heartbeats, no result, until well past the
		// coordinator's heartbeat timeout. The coordinator must kill us;
		// if it somehow doesn't, fall through and serve the job so a
		// misconfigured timeout degrades to slowness, not deadlock.
		time.Sleep(time.Duration(chaos.StallMs) * time.Millisecond)
	case fateSlow:
		// Slow, not hung: heartbeats flow while we sleep, so the
		// coordinator speculatively retries instead of killing us, and
		// our eventual result races the retry's.
		hb.active(job.Key)
		time.Sleep(time.Duration(chaos.SlowMs) * time.Millisecond)
	case fateTrunc:
		// Serve the job but tear the result frame halfway through —
		// exactly the torn write a worker dying mid-flush produces.
		payload, err := runJob(space, job.Key)
		if err != nil {
			return ErrChaosKill
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, "result", resultPayload{
			Key: job.Key, Attempt: job.Attempt, Payload: payload,
		}); err != nil {
			return err
		}
		out.writeRaw(buf.Bytes()[:buf.Len()/2])
		return ErrChaosKill
	}

	hb.active(job.Key)
	payload, err := runJob(space, job.Key)
	hb.idle()
	if err != nil {
		return out.write("joberr", jobErrPayload{Key: job.Key, Attempt: job.Attempt, Error: err.Error()})
	}
	return out.write("result", resultPayload{Key: job.Key, Attempt: job.Attempt, Payload: payload})
}

// runJob executes the job, converting a panic into an error the same
// way internal/runner does: one broken run must not take the worker's
// other claims down with it un-reported.
func runJob(space JobSpace, key int) (payload []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("job %d panicked: %v\n%s", key, v, debug.Stack())
		}
	}()
	if key < 0 || key >= space.NumJobs() {
		return nil, fmt.Errorf("job key %d outside space [0,%d)", key, space.NumJobs())
	}
	return space.Run(key, 0)
}

// frameWriter serializes frame writes from the serve loop and the
// heartbeat goroutine.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) write(typ string, data any) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return WriteFrame(fw.w, typ, data)
}

// writeRaw emits pre-marshalled (possibly deliberately torn) bytes.
func (fw *frameWriter) writeRaw(b []byte) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.w.Write(b)
}

// heartbeater emits heartbeat frames for the active job on a fixed
// period. The simulation itself is single-threaded and uninterruptible
// mid-job, so liveness comes from this side goroutine: as long as the
// process is alive and scheduled, beats flow; a stalled or dead worker
// goes silent, which is precisely the coordinator's hang signal.
type heartbeater struct {
	out    *frameWriter
	every  time.Duration
	mu     sync.Mutex
	key    int
	seq    int
	doneCh chan struct{}
}

func newHeartbeater(out *frameWriter, every time.Duration) *heartbeater {
	if every <= 0 {
		every = HeartbeatPeriod
	}
	hb := &heartbeater{out: out, every: every, key: -1, doneCh: make(chan struct{})}
	go hb.loop()
	return hb
}

func (hb *heartbeater) loop() {
	t := time.NewTicker(hb.every)
	defer t.Stop()
	for {
		select {
		case <-hb.doneCh:
			return
		case <-t.C:
			hb.mu.Lock()
			key, beat := hb.key, hb.key >= 0
			if beat {
				hb.seq++
			}
			seq := hb.seq
			hb.mu.Unlock()
			if beat {
				// A write error means the coordinator is gone; the serve
				// loop will find out on its next read.
				hb.out.write("heartbeat", heartbeatPayload{Key: key, Seq: seq})
			}
		}
	}
}

func (hb *heartbeater) active(key int) {
	hb.mu.Lock()
	hb.key = key
	hb.mu.Unlock()
}

func (hb *heartbeater) idle() {
	hb.mu.Lock()
	hb.key = -1
	hb.mu.Unlock()
}

func (hb *heartbeater) stop() {
	select {
	case <-hb.doneCh:
	default:
		close(hb.doneCh)
	}
}
