package fleet

import "time"

// splitmix64 is the canonical SplitMix64 finalizer — the same avalanche
// internal/chaos uses for run-seed derivation, duplicated here so the
// fleet's retry jitter and worker self-chaos stay dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds a (job, attempt) coordinate into a seed, giving every cell
// of the retry matrix an independent-looking stream (two chained
// SplitMix64 steps, like chaos.RunSeed).
func mix(seed uint64, job, attempt int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(job)+1)*31 ^ splitmix64(uint64(attempt)+1))
}

// RetryDelay returns the backoff before retry number attempt of a job
// (attempt 1 is the first retry): exponential in the attempt with a
// seeded jitter in the upper half of the window, so colliding retries
// decorrelate without losing determinism. It is a pure function of
// (seed, job, attempt) — the whole retry schedule of a run is fixed by
// its seed, which is what makes supervision testable.
func RetryDelay(seed uint64, job, attempt int, base, max time.Duration) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	half := d / 2
	jitter := time.Duration(0)
	if half > 0 {
		jitter = time.Duration(mix(seed, job, attempt) % uint64(half+1))
	}
	return d - half + jitter // in [d/2, d/2+half] = [d/2, d]
}
