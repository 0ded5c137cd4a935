package fleet

import "time"

// Worker self-chaos: the fleet's own fault-injection layer, in the
// spirit of internal/faultinject. When enabled, a worker decides a
// deterministic "fate" for every (job, attempt) cell from a seeded
// hash and sabotages itself accordingly — dying without warning
// mid-job (the SIGKILL shape), stalling with heartbeats suppressed
// (the hang shape), or truncating its result frame (the torn-wire
// shape). Because fates only fire below MaxAttempt, a bounded retry
// budget always completes the campaign, and because the sabotage is a
// pure function of (seed, job, attempt), every chaos run is
// reproducible.

// ChaosConfig shapes worker self-chaos. All percentages are per
// (job, attempt) cell; they must sum to at most 100. A worker takes it
// from its own flags (limit-chaos -chaos-workers and -fleet-seed), never
// from the wire.
type ChaosConfig struct {
	// Seed drives the per-cell fate hash.
	Seed uint64
	// CrashPct is the chance the worker exits abruptly (SIGKILL shape)
	// instead of returning the job's result.
	CrashPct int
	// StallPct is the chance the worker stalls mid-job with heartbeats
	// suppressed — the hang the coordinator must detect and kill.
	StallPct int
	// TruncPct is the chance the worker writes only a prefix of its
	// result frame before dying — the torn frame the wire layer must
	// reject.
	TruncPct int
	// MaxAttempt caps which attempts can draw a fate: attempts >=
	// MaxAttempt always run clean (default 2), so any retry budget
	// above it completes every job.
	MaxAttempt int
	// StallMs is the stall duration; it must exceed the coordinator's
	// heartbeat timeout to register as a hang.
	StallMs int
}

// Enabled reports whether any fault class is active.
func (c ChaosConfig) Enabled() bool {
	return c.CrashPct+c.StallPct+c.TruncPct > 0
}

// KillStorm is the stock -chaos-workers mix: heavy crashes with a side
// of hangs and torn frames, all confined to the first two attempts. A
// stall lasts twice hbTimeout, the coordinator's heartbeat timeout, so
// that it registers as a hang at any timeout.
func KillStorm(seed uint64, hbTimeout time.Duration) ChaosConfig {
	return ChaosConfig{
		Seed:     seed,
		CrashPct: 30, StallPct: 10, TruncPct: 10,
		MaxAttempt: 2,
		StallMs:    int(2 * hbTimeout / time.Millisecond),
	}
}

type fate int

const (
	fateClean fate = iota
	fateCrash
	fateStall
	fateTrunc
)

// fateFor draws the (job, attempt) cell's fate.
func (c ChaosConfig) fateFor(job, attempt int) fate {
	if !c.Enabled() {
		return fateClean
	}
	maxAttempt := c.MaxAttempt
	if maxAttempt <= 0 {
		maxAttempt = 2
	}
	if attempt >= maxAttempt {
		return fateClean
	}
	roll := int(mix(c.Seed, job, attempt) % 100)
	switch {
	case roll < c.CrashPct:
		return fateCrash
	case roll < c.CrashPct+c.StallPct:
		return fateStall
	case roll < c.CrashPct+c.StallPct+c.TruncPct:
		return fateTrunc
	}
	return fateClean
}
