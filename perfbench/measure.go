package main

import (
	"sort"
	"time"
)

// calibRefNsPerOp is the host-calibration reading recorded with the
// seed baseline in bench/BENCH_machine_baseline.json. Normalized times
// read as if taken on a host where the calibration loop costs this
// much, which is what makes them comparable across runs on a shared
// host whose speed drifts.
const calibRefNsPerOp = 2345

// calibOps sizes one calibration: about 20 ms at the reference speed,
// short enough to repeat before every block of iterations.
const calibOps = 8192

var calibSink uint64

// calibrate runs the BenchmarkHostCalibration splitmix64 loop
// (machine_bench_test.go at the repository root) for calibOps ops and
// returns its ns/op. The loop body, including the store to a
// package-level sink on every step, must stay identical to that
// benchmark's so that readings compare with the recorded reference.
func calibrate() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < calibOps; i++ {
		for j := 0; j < 1024; j++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			calibSink += z ^ (z >> 31)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / calibOps
}

// normalize scales a host time measured while the calibration loop
// cost calib ns/op to the reference host. The factor is squared: the
// calibration loop is one latency-bound dependency chain, and when the
// shared host slows, the simulator (branchy, memory-heavy) slows about
// twice as much in relative terms. On the 2-vCPU host the benchmark was
// sized on, 20-second windows of back-to-back runs varied by an
// interquartile range of 10-20% raw, 4-9% with a linear factor and
// 1.6-4.6% with the squared one (README.md has the table).
func normalize(t, calib float64) float64 {
	f := calibRefNsPerOp / calib
	return t * f * f
}

// blockTime bounds how long one calibration reading is used for.
const blockTime = 100 * time.Millisecond

// calibClock hands out the calibration reading each measurement is
// normalized by, recalibrating at the start of every block: after
// perBlock measurements or blockTime, whichever comes first.
type calibClock struct {
	perBlock int
	calib    float64
	at       time.Time
	n        int
	readings []float64
}

func (c *calibClock) next() float64 {
	if c.n == 0 || c.n >= c.perBlock || time.Since(c.at) >= blockTime {
		c.calib = calibrate()
		c.readings = append(c.readings, c.calib)
		c.at, c.n = time.Now(), 0
	}
	c.n++
	return c.calib
}

// percentile returns the pct-th percentile of ascending samples,
// interpolating linearly between the closest ranks (0 when empty).
func percentile(sorted []float64, pct int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := float64(pct) / 100 * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailCount is how many of n samples lie strictly above the rank
// percentile places the pct-th percentile at. A percentile is worth
// reporting only when at least ten samples lie beyond it.
func tailCount(n, pct int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - pct*(n-1)/100
}

// median returns the median of samples without reordering them.
func median(samples []float64) float64 {
	return percentile(sorted(samples), 50)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// splitmix64 is the seed mixer used to derive workload inputs from
// --seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
