// Package fleet shards a campaign's job space across OS worker
// processes, with failure as the design center: workers crash, hang,
// stall, and write torn frames, and the fleet-wide result must still be
// byte-identical to the single-process engine's. It is the
// cross-process extension of internal/runner — same keyed job space,
// same canonical merge order — with a supervision layer between the
// claim and the result:
//
//   - Nothing describes the job space on the wire. The coordinator and
//     every worker build their own instance: a worker process is the
//     same command re-executed with the coordinator's own flags plus a
//     worker flag (see ProcSpawner), an in-process worker calls
//     InProcSpawner's constructor. The worker's self-chaos comes from
//     the same place, so only job keys flow to it. The handshake checks
//     that they agree: each worker's ready frame reports its job count,
//     and a worker whose count differs from the coordinator's is failed
//     before it is handed a job.
//   - The coordinator speaks length-prefixed, versioned JSON frames
//     (WriteFrame/ReadFrame) with each worker over its stdin/stdout.
//     A torn, oversized, or version-skewed frame is a typed *WireError
//     and counts as a worker failure — it never merges.
//   - At most one copy of a job is in flight. A worker's result or
//     joberr frame must name the job it was given; any other key is a
//     bad frame that fails the worker.
//   - A new worker must send its ready frame, and a busy worker must
//     heartbeat, within the heartbeat timeout; silence past it means
//     the worker is hung and it is killed.
//   - Failed jobs retry with exponential backoff and seeded jitter
//     (RetryDelay is a pure function of seed, job, and attempt, so
//     retry schedules are deterministic in tests). After MaxAttempts
//     failures a job is quarantined — enumerated in the report, never
//     silently dropped.
//   - When no workers can be spawned (or none survive), the
//     coordinator degrades gracefully to in-process execution through
//     internal/runner.
//
// Correctness is auditable: Report.Audit checks that every job is
// accounted exactly once (done XOR quarantined), that per-worker
// result contributions conserve against the merged total, and that
// done jobs equal worker-merged plus inline-merged results — the fleet
// analogue of internal/invariant's oracles.
package fleet

import "io"

// JobSpace is a shardable campaign: a fixed number of independent
// jobs, each a pure function of (space config, key) producing a
// wire-encodable payload. The worker index has the same meaning as in
// internal/runner — a stable slot identity that implementations may
// use to pool expensive per-run artifacts; a given worker index never
// runs two jobs concurrently. Every fleet worker runs its jobs one at a
// time as worker index 0, so fleet workers must not share an instance:
// each builds its own.
type JobSpace interface {
	// NumJobs is the job-space size; keys are 0..NumJobs-1.
	NumJobs() int
	// Run executes job key and returns its payload. The payload must be
	// deterministic: any two executions of the same key return the same
	// bytes, which is what makes retry safe.
	Run(job, worker int) ([]byte, error)
}

// Transport is one spawned worker's connection: frames are read from
// and written to it, Kill hard-stops the worker (SIGKILL for a real
// process), and Wait reaps it after the stream ends.
type Transport interface {
	io.Reader
	io.Writer
	// Kill hard-stops the worker; subsequent reads fail.
	Kill()
	// Wait blocks until the worker is reaped. Must be callable after
	// Kill, and exactly once.
	Wait() error
}

// Spawner starts worker number id and returns its transport. The
// coordinator calls it for the initial fleet and for every
// replacement; returning an error counts toward the spawn-failure
// budget, after which the coordinator degrades to in-process
// execution.
type Spawner func(id int) (Transport, error)
