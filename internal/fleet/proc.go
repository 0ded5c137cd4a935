package fleet

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
)

// procTransport is one worker OS process: frames flow over the child's
// stdin/stdout, Kill is SIGKILL, Wait reaps. The parent owns the pipes
// (plain os.Pipe, not exec's managed pipes), so Kill can snap them
// while a reader goroutine is mid-read without racing exec.Wait's
// internal cleanup.
type procTransport struct {
	cmd  *exec.Cmd
	outR *os.File // parent reads worker stdout here
	inW  *os.File // parent writes worker stdin here
	once sync.Once
}

func (t *procTransport) Read(p []byte) (int, error)  { return t.outR.Read(p) }
func (t *procTransport) Write(p []byte) (int, error) { return t.inW.Write(p) }

func (t *procTransport) Kill() {
	t.once.Do(func() {
		t.inW.Close()
		t.outR.Close()
		if t.cmd.Process != nil {
			t.cmd.Process.Kill()
		}
	})
}

func (t *procTransport) Wait() error { return t.cmd.Wait() }

// ProcSpawner returns a Spawner that starts each worker by executing
// argv0 with args — typically this binary's own path and the flags it
// parsed plus a worker flag, so the worker builds the coordinator's
// job space, and its own self-chaos, from the same flags. The child's
// stderr passes through to the parent's, so worker diagnostics stay
// visible; the frame protocol owns stdin/stdout.
func ProcSpawner(argv0 string, args ...string) Spawner {
	return func(id int) (Transport, error) {
		inR, inW, err := os.Pipe()
		if err != nil {
			return nil, fmt.Errorf("fleet: spawning worker %d: %w", id, err)
		}
		outR, outW, err := os.Pipe()
		if err != nil {
			inR.Close()
			inW.Close()
			return nil, fmt.Errorf("fleet: spawning worker %d: %w", id, err)
		}
		cmd := exec.Command(argv0, args...)
		cmd.Stdin = inR
		cmd.Stdout = outW
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			inR.Close()
			inW.Close()
			outR.Close()
			outW.Close()
			return nil, fmt.Errorf("fleet: spawning worker %d: %w", id, err)
		}
		// The child holds its own copies of these ends now.
		inR.Close()
		outW.Close()
		return &procTransport{cmd: cmd, outR: outR, inW: inW}, nil
	}
}
