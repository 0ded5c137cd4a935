package main

import (
	"fmt"
	"time"

	"limitsim/internal/cache"
	"limitsim/internal/cpu"
	"limitsim/internal/isa"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// A probe times one public call of one layer in a loop, in isolation,
// nanoBench-style: the same shapes as the package micro-benchmarks
// (BenchmarkStep*, BenchmarkRead64/Write64, BenchmarkAddEvent*), run
// inside the benchmark so their costs sit next to the workload's exact
// event counts. measure returns normalized ns per call.
type probe struct {
	name    string
	measure func() (float64, error)
}

// probeReps is how many timed repetitions a loop's median is taken
// over.
const probeReps = 7

var probeSink uint64

// timeLoop returns loop's normalized ns per op: the median over
// probeReps timed runs of ops ops each, after a warm-up, calibrated just
// before timing.
func timeLoop(loop func(n int) error, ops int) (float64, error) {
	if err := loop(ops / 10); err != nil {
		return 0, err
	}
	calib := calibrate()
	reps := make([]float64, probeReps)
	for r := range reps {
		start := time.Now()
		if err := loop(ops); err != nil {
			return 0, err
		}
		reps[r] = normalize(float64(time.Since(start).Nanoseconds())/float64(ops), calib)
	}
	return median(reps), nil
}

// loopProbe times a loop whose every op is one call.
func loopProbe(name string, loop func(n int) error) probe {
	return probe{name: name, measure: func() (float64, error) { return timeLoop(loop, 1_000_000) }}
}

// stepUnroll is how many copies of the measured instruction the shorter
// of a step probe's two loops holds before its jump back.
const stepUnroll = 8

// stepProbe times cpu.Core.Step on one instruction class, with one
// user-cycles counter programmed so PMU dispatch is realistic. It
// removes the loop's own cost the nanoBench way: one loop holds the
// instruction stepUnroll times and another 2·stepUnroll times, each
// before one jump back, and the difference of their times per extra
// copy is the cost of one instruction. The two loops alternate, rep by
// rep, so host drift cancels in each difference. body emits one copy
// and must fall through to next.
func stepProbe(class string, body func(b *isa.Builder, next string)) probe {
	return probe{name: "cpu.step_ns." + class, measure: func() (float64, error) {
		const laps = 100_000
		var loops [2]func(int) error
		for i, k := range []int{stepUnroll, 2 * stepUnroll} {
			loop, err := stepLoop(class, body, k)
			if err != nil {
				return 0, err
			}
			if err := loop(laps / 10); err != nil { // warm up
				return 0, err
			}
			loops[i] = loop
		}
		calib := calibrate()
		diffs := make([]float64, probeReps)
		for r := range diffs {
			var ns [2]float64
			for i, loop := range loops {
				start := time.Now()
				if err := loop(laps); err != nil {
					return 0, err
				}
				ns[i] = float64(time.Since(start).Nanoseconds())
			}
			diffs[r] = (ns[1] - ns[0]) / (laps * stepUnroll)
		}
		return normalize(median(diffs), calib), nil
	}}
}

// stepLoop builds k copies of body and a jump back, and returns a loop
// that steps n laps of it.
func stepLoop(class string, body func(b *isa.Builder, next string), k int) (func(n int) error, error) {
	b := isa.NewBuilder()
	b.Label("top")
	for i := 0; i < k; i++ {
		next := fmt.Sprintf("c%d", i)
		body(b, next)
		b.Label(next)
	}
	b.Jmp("top")
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	core := cpu.NewCore(0, pmu.DefaultFeatures())
	core.PMU.Configure(0, pmu.CounterConfig{Event: pmu.EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	sp := mem.NewSpace()
	ctx := &cpu.Context{Prog: prog, Mem: sp}
	ctx.Regs[isa.R1] = sp.AllocWords(1024)
	ctx.SeedRNG(1)
	steps := k + 1
	return func(n int) error {
		for i := 0; i < n*steps; i++ {
			if res := core.Step(ctx); res.Trap != cpu.TrapNone {
				return fmt.Errorf("%s: trap %v: %s", class, res.Trap, res.Fault)
			}
		}
		return nil
	}, nil
}

// pmuProbe times pmu.PMU.AddEvent on an event a counter does or does
// not select.
func pmuProbe(name string, ev pmu.Event) probe {
	p := pmu.New(pmu.DefaultFeatures())
	p.Configure(0, pmu.CounterConfig{Event: pmu.EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	return loopProbe(name, func(n int) error {
		for i := 0; i < n; i++ {
			p.AddEvent(pmu.RingUser, ev, 1)
		}
		return nil
	})
}

// newProbes builds the probes with fresh state.
func newProbes() []probe {
	rs, ws := mem.NewSpace(), mem.NewSpace()
	raddr, waddr := rs.AllocWords(1), ws.AllocWords(1)
	h := cache.NewDefault()
	return []probe{
		stepProbe("alu", func(b *isa.Builder, _ string) { b.Add(isa.R2, isa.R2, isa.R3) }),
		stepProbe("load", func(b *isa.Builder, _ string) { b.Load(isa.R2, isa.R1, 0) }),
		stepProbe("store", func(b *isa.Builder, _ string) { b.Store(isa.R1, 0, isa.R2) }),
		// R2 == R3 == 0, so the branch is always taken, to the next copy.
		stepProbe("branch", func(b *isa.Builder, next string) { b.Br(isa.CondEQ, isa.R2, isa.R3, next) }),
		stepProbe("atomic", func(b *isa.Builder, _ string) { b.XAdd(isa.R2, isa.R1, isa.R3) }),
		loopProbe("mem.read64_ns", func(n int) error {
			for i := 0; i < n; i++ {
				probeSink += rs.Read64(raddr)
			}
			return nil
		}),
		loopProbe("mem.write64_ns", func(n int) error {
			for i := 0; i < n; i++ {
				ws.Write64(waddr, uint64(i))
			}
			return nil
		}),
		// Cycling over 64 lines (4 KiB) keeps every access an L1 hit on
		// a line other than the last one, so each takes the full lookup.
		loopProbe("cache.access_ns", func(n int) error {
			for i := 0; i < n; i++ {
				probeSink += h.Access(uint64(i%64) * 64).Cycles
			}
			return nil
		}),
		pmuProbe("pmu.addevent_ns.unwatched", pmu.EvLoads),
		pmuProbe("pmu.addevent_ns.watched", pmu.EvCycles),
	}
}

// runProbes returns each probe's normalized ns per call.
func runProbes() (map[string]float64, error) {
	probes := newProbes()
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		ns, err := p.measure()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = ns
	}
	return out, nil
}
