package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/machine"
	"limitsim/internal/probe"
	"limitsim/internal/tabwrite"
	"limitsim/internal/workloads"
)

// F2Point is one (method, density) slowdown measurement.
type F2Point struct {
	Method        string
	ReadsPerKInst float64
	Slowdown      float64 // runtime / uninstrumented runtime
}

// F2Result reproduces Figure 2: application slowdown versus
// instrumentation density. LiMiT stays near 1× at densities where the
// syscall-based methods slow the program down by integer factors —
// the paper's core overhead result.
type F2Result struct {
	Works  []int64 // instruction gap between reads (density knob)
	Kinds  []probe.Kind
	Points []F2Point
}

func f2Works() []int64 {
	return []int64{30_000, 10_000, 3_000, 1_000, 300, 100, 30}
}

func f2Kinds() []probe.Kind {
	return []probe.Kind{probe.KindRdtsc, probe.KindLimit, probe.KindPerf, probe.KindPAPI}
}

// f2Cell is one independent cell of the Figure 2 sweep: a (density,
// method) run, or — with KindNull — the density's uninstrumented
// baseline.
type f2Cell struct {
	Work  int64
	Iters int
	Kind  probe.Kind
}

// f2Grid enumerates the sweep in canonical order: for each density,
// the uninstrumented baseline followed by every method (stride
// 1+len(kinds)); assembleF2 depends on this layout.
func f2Grid(s Scale) []f2Cell {
	var grid []f2Cell
	for _, work := range f2Works() {
		// Keep total work roughly constant across densities.
		iters := s.iters(int(10_000_000 / work))
		grid = append(grid, f2Cell{Work: work, Iters: iters, Kind: probe.KindNull})
		for _, kind := range f2Kinds() {
			grid = append(grid, f2Cell{Work: work, Iters: iters, Kind: kind})
		}
	}
	return grid
}

// runF2Cell executes one grid cell on its own single-core machine and
// returns the run's cycle count.
func runF2Cell(c f2Cell) (uint64, error) {
	app := workloads.BuildReadLoop(workloads.ReadLoopConfig{
		Name: "f2", Threads: 1, Iters: c.Iters, WorkInstrs: c.Work,
	}, workloads.Instrumentation{Kind: c.Kind})
	_, res, _ := app.Run(machine.Config{NumCores: 1}, machine.RunLimits{MaxSteps: runSteps})
	if res.Err != nil {
		return 0, fmt.Errorf("fig2 %s@%d run: %w", c.Kind, c.Work, res.Err)
	}
	return res.Cycles, nil
}

// assembleF2 folds the grid's cycle counts (in f2Grid order) into the
// figure.
func assembleF2(cycles []uint64) (*F2Result, error) {
	works, kinds := f2Works(), f2Kinds()
	stride := 1 + len(kinds)
	if len(cycles) != len(works)*stride {
		return nil, fmt.Errorf("fig2: %d cycle count(s) for a %d-cell grid", len(cycles), len(works)*stride)
	}
	r := &F2Result{Works: works, Kinds: kinds}
	for wi, work := range works {
		base := cycles[wi*stride]
		if base == 0 {
			return nil, fmt.Errorf("fig2: zero-cycle baseline at density %d", work)
		}
		for ki, kind := range kinds {
			r.Points = append(r.Points, F2Point{
				Method:        string(kind),
				ReadsPerKInst: 1000 / float64(work),
				Slowdown:      float64(cycles[wi*stride+1+ki]) / float64(base),
			})
		}
	}
	return r, nil
}

// RunFig2 sweeps density for each method.
func RunFig2(s Scale) (*F2Result, error) {
	grid := f2Grid(s)
	cycles, err := runPar(len(grid), func(i int) (uint64, error) {
		return runF2Cell(grid[i])
	})
	if err != nil {
		return nil, err
	}
	return assembleF2(cycles)
}

// Point returns the (method, work) cell.
func (r *F2Result) Point(method string, work int64) (F2Point, bool) {
	density := 1000 / float64(work)
	for _, p := range r.Points {
		if p.Method == method && p.ReadsPerKInst == density {
			return p, true
		}
	}
	return F2Point{}, false
}

// Render writes the figure as a series table (slowdown per density).
func (r *F2Result) Render(w io.Writer) {
	header := []string{"reads/kinstr"}
	for _, k := range r.Kinds {
		header = append(header, string(k))
	}
	t := tabwrite.New("Figure 2: slowdown vs instrumentation density", header...)
	for _, work := range r.Works {
		row := []any{tabwrite.FormatFloat(1000 / float64(work))}
		for _, k := range r.Kinds {
			p, _ := r.Point(string(k), work)
			row = append(row, p.Slowdown)
		}
		t.Row(row...)
	}
	t.Render(w)
}
