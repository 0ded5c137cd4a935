package fleet

import (
	"io"
	"sync"
)

// pipeTransport is the in-process analogue of a worker process: the
// worker side is WorkerMain on a goroutine over io.Pipes. Kill snaps
// all four pipe ends, which is exactly what a SIGKILLed process looks
// like to the coordinator — an abruptly-ended stream — and unblocks
// any write the worker has in flight.
type pipeTransport struct {
	outR *io.PipeReader // coordinator reads worker output here
	inW  *io.PipeWriter // coordinator writes worker input here
	inR  *io.PipeReader
	outW *io.PipeWriter
	done chan error
	once sync.Once
}

func (t *pipeTransport) Read(p []byte) (int, error)  { return t.outR.Read(p) }
func (t *pipeTransport) Write(p []byte) (int, error) { return t.inW.Write(p) }

func (t *pipeTransport) Kill() {
	t.once.Do(func() {
		t.outR.Close()
		t.inW.Close()
		t.inR.Close()
		t.outW.Close()
	})
}

func (t *pipeTransport) Wait() error { return <-t.done }

// InProcSpawner returns a Spawner whose workers are WorkerMain
// goroutines over in-memory pipes instead of OS processes. Each worker
// serves its own space from newSpace under chaos, as a worker process
// builds both from its flags. The full wire protocol, supervision, and
// self-chaos machinery runs unchanged — a chaos worker "crashes" by
// returning ErrChaosKill, which snaps its pipes just as a SIGKILL
// would. This is the transport the race-detector tests drive, and a
// way to exercise fleet supervision where spawning processes is
// unavailable.
func InProcSpawner(newSpace func() JobSpace, chaos ChaosConfig) Spawner {
	return pipeSpawner(func(_ int, r io.Reader, w io.Writer) error {
		return WorkerMain(r, w, newSpace(), chaos)
	})
}

// pipeSpawner returns a Spawner whose worker id runs serve on a
// goroutine over in-memory pipes; serve returning ends the worker's
// stream, as a process exit does. Tests drive it with hand-rolled
// workers that break the protocol.
func pipeSpawner(serve func(id int, r io.Reader, w io.Writer) error) Spawner {
	return func(id int) (Transport, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		tr := &pipeTransport{outR: outR, inW: inW, inR: inR, outW: outW, done: make(chan error, 1)}
		go func() {
			err := serve(id, inR, outW)
			outW.Close()
			inR.Close()
			tr.done <- err
		}()
		return tr, nil
	}
}
