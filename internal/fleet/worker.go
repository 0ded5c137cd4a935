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
	"sync/atomic"
	"time"
)

// HeartbeatPeriod is how often a busy worker heartbeats. A
// coordinator's HeartbeatTimeout must be at least twice it, or healthy
// workers are killed as hung.
const HeartbeatPeriod = 100 * time.Millisecond

// Frame payload shapes. Every frame crossing the pipe is validated by
// ReadFrame (length, version, type) before these decode; a payload
// that then fails to decode is a protocol error, handled as a
// worker/coordinator failure, never a silent skip. Heartbeat and
// shutdown frames carry no payload.

// readyPayload is the worker's half of the handshake: the size of the
// space it built, which the coordinator checks against its own.
type readyPayload struct {
	Jobs int `json:"jobs"`
}

type jobPayload struct {
	Key     int `json:"key"`
	Attempt int `json:"attempt"`
}

// replyPayload answers a job frame: a result frame carries the job's
// payload, a joberr frame its error. Key must name the job the worker
// was given; the coordinator rejects any other.
type replyPayload struct {
	Key     int             `json:"key"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// ErrChaosKill is returned by WorkerMain when worker self-chaos
// decides this worker dies abruptly. The process entry point turns it
// into an unclean exit; the in-process spawner turns it into a snapped
// pipe. Either way the coordinator sees the same thing a SIGKILL
// produces: a dead connection with a job in flight.
var ErrChaosKill = errors.New("fleet: worker killed by self-chaos")

// WorkerMain is the worker side of the protocol: announce space's size
// in the ready frame, then serve space's jobs until shutdown,
// sabotaging them as chaos says (the zero ChaosConfig never does). The
// caller supplies both — limit-chaos -worker builds them from its own
// flags — so only job keys reach the worker over the wire. It is
// transport-agnostic (the real process's stdin/stdout, or in-memory
// pipes in tests), and all chaos sabotage happens here, so a chaos
// worker misbehaves identically in both settings.
func WorkerMain(r io.Reader, w io.Writer, space JobSpace, chaos ChaosConfig) error {
	br := bufio.NewReader(r)
	out := &frameWriter{w: w}
	if err := out.write("ready", readyPayload{Jobs: space.NumJobs()}); err != nil {
		return err
	}
	var busy atomic.Bool
	done := make(chan struct{})
	defer close(done)
	go heartbeat(out, &busy, done)

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
			if err := serveJob(space, job, chaos, out, &busy); err != nil {
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
// result (or sabotage) back. busy is set while the job runs, which is
// when heartbeats flow.
func serveJob(space JobSpace, job jobPayload, chaos ChaosConfig, out *frameWriter, busy *atomic.Bool) error {
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
	case fateTrunc:
		// Serve the job but tear the result frame halfway through —
		// exactly the torn write a worker dying mid-flush produces.
		payload, err := runJob(space, job.Key)
		if err != nil {
			return ErrChaosKill
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, "result", replyPayload{Key: job.Key, Payload: payload}); err != nil {
			return err
		}
		out.writeRaw(buf.Bytes()[:buf.Len()/2])
		return ErrChaosKill
	}

	busy.Store(true)
	payload, err := runJob(space, job.Key)
	busy.Store(false)
	if err != nil {
		return out.write("joberr", replyPayload{Key: job.Key, Error: err.Error()})
	}
	return out.write("result", replyPayload{Key: job.Key, Payload: payload})
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

// heartbeat writes an empty heartbeat frame every HeartbeatPeriod
// while busy is set, until done closes. The simulation itself is
// single-threaded and uninterruptible mid-job, so liveness comes from
// this side goroutine: as long as the process is alive and scheduled,
// beats flow; a stalled or dead worker goes silent, which is precisely
// the coordinator's hang signal.
func heartbeat(out *frameWriter, busy *atomic.Bool, done <-chan struct{}) {
	t := time.NewTicker(HeartbeatPeriod)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if busy.Load() {
				// A write error means the coordinator is gone; the serve
				// loop will find out on its next read.
				out.write("heartbeat", nil)
			}
		}
	}
}
