package experiments

import (
	"fmt"
	"io"
	"math"

	"limitsim/internal/isa"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/perfevent"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
)

// T5Row is one counter-count's multiplexing error.
type T5Row struct {
	Counters   int
	LoadedPct  float64 // mean fraction of scheduled time each counter was loaded
	MeanAbsErr float64 // mean |estimate − truth| / truth over the set
	MaxAbsErr  float64
}

// T5Result measures the estimation error Linux-style counter
// multiplexing introduces when a thread wants more simultaneous events
// than the PMU has slots — the limitation motivating the paper's call
// for more (and more cheaply accessible) counters. The workload is
// deliberately bursty (alternating hot phases), the worst case for
// time-extrapolated estimates: a counter that happens to be unloaded
// during a burst mis-extrapolates it. With counters ≤ slots the error
// is exactly zero.
type T5Result struct {
	Rows []T5Row
}

// RunTable5 sweeps the per-thread counter count on a 4-slot PMU.
func RunTable5(s Scale) (*T5Result, error) {
	iters := s.iters(400)
	counts := []int{2, 4, 8, 16}
	rows, err := runPar(len(counts), func(ci int) (T5Row, error) {
		nCounters := counts[ci]
		kcfg := kernel.DefaultConfig()
		kcfg.Quantum = 4_000

		b := isa.NewBuilder()
		for i := 0; i < nCounters; i++ {
			b.MovImm(isa.R0, int64(pmu.EvInstructions))
			b.MovImm(isa.R1, int64(kernel.FlagUser))
			b.Syscall(kernel.SysPerfOpen)
		}
		b.MovImm(isa.R8, 0)
		b.Label("loop")
		// Bursty phases: 1-in-4 iterations runs an 8x burst.
		burst := "burst"
		next := "next"
		b.BrRand(64, burst)
		b.Compute(300)
		b.Jmp(next)
		b.Label(burst)
		b.Compute(2_400)
		b.Label(next)
		b.AddImm(isa.R8, isa.R8, 1)
		b.MovImm(isa.R9, int64(iters))
		b.Br(isa.CondLT, isa.R8, isa.R9, "loop")
		b.Halt()
		prog := b.MustBuild()

		m := machine.New(machine.Config{NumCores: 1, Kernel: kcfg})
		proc := m.Kern.NewProcess(prog, nil)
		th := m.Kern.Spawn(proc, "mux", 0, 31)
		m.Kern.Spawn(proc, "rival", 0, 32)
		res := m.Run(machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil {
			return T5Row{}, fmt.Errorf("table5 %d-counter run: %w", nCounters, res.Err)
		}
		if !res.AllDone {
			return T5Row{}, fmt.Errorf("table5 %d-counter run: incomplete after %d steps", nCounters, res.Steps)
		}

		truth := float64(th.Stats.UserInstructions)
		row := T5Row{Counters: nCounters}
		var loadedSum float64
		for fd := 0; fd < nCounters; fd++ {
			v, ferr := perfevent.FinalValue(th, fd)
			if ferr != nil {
				return T5Row{}, fmt.Errorf("table5 %d-counter run: %w", nCounters, ferr)
			}
			err := math.Abs(float64(v)-truth) / truth
			row.MeanAbsErr += err
			if err > row.MaxAbsErr {
				row.MaxAbsErr = err
			}
			g := th.Counters()[fd].Group()
			if g.EnabledCycles > 0 {
				loadedSum += float64(g.RunningCycles) / float64(g.EnabledCycles)
			} else {
				loadedSum += 1
			}
		}
		row.MeanAbsErr /= float64(nCounters)
		row.LoadedPct = loadedSum / float64(nCounters) * 100
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &T5Result{Rows: rows}, nil
}

// Row returns the row for a counter count.
func (r *T5Result) Row(n int) (T5Row, bool) {
	for _, row := range r.Rows {
		if row.Counters == n {
			return row, true
		}
	}
	return T5Row{}, false
}

// Render writes the table.
func (r *T5Result) Render(w io.Writer) {
	t := tabwrite.New("Table 5: counter multiplexing estimation error (4 hardware slots, bursty workload)",
		"counters", "loaded %", "mean |err|", "max |err|")
	for _, row := range r.Rows {
		t.Row(row.Counters, row.LoadedPct,
			pct(row.MeanAbsErr), pct(row.MaxAbsErr))
	}
	t.Render(w)
}
