package experiments

import (
	"fmt"
	"io"

	"limitsim/internal/machine"
	"limitsim/internal/probe"
	"limitsim/internal/tabwrite"
	"limitsim/internal/workloads"
)

// T1Row is one access method's measured read cost.
type T1Row struct {
	Method      string
	CyclesRead  float64
	NsRead      float64
	RatioVsLiMT float64 // cost relative to LiMiT
	Precise     bool    // can it measure an individual region?
	Virtualized bool    // does descheduled time stay out of readings?
}

// T1Result reproduces Table 1: counter access method comparison.
type T1Result struct {
	Rows  []T1Row
	Iters int
}

// RunTable1 measures each access method's per-read cost with a
// tight loop against the uninstrumented baseline.
func RunTable1(s Scale) (*T1Result, error) {
	iters := s.iters(20_000)
	const work = 200

	run := func(kind probe.Kind) (uint64, error) {
		app := workloads.BuildReadLoop(workloads.ReadLoopConfig{
			Name: "t1-" + string(kind), Threads: 1, Iters: iters, WorkInstrs: work,
		}, workloads.Instrumentation{Kind: kind})
		_, res, _ := app.Run(machine.Config{NumCores: 1}, machine.RunLimits{MaxSteps: runSteps})
		if res.Err != nil {
			return 0, fmt.Errorf("table1 %s run: %w", kind, res.Err)
		}
		return res.Cycles, nil
	}

	r := &T1Result{Iters: iters}
	type rowSpec struct {
		kind        probe.Kind
		precise     bool
		virtualized bool
	}
	specs := []rowSpec{
		{probe.KindNull, false, false}, // uninstrumented baseline, not a row
		{probe.KindRdtsc, true, false},
		{probe.KindLimit, true, true},
		{probe.KindPerf, true, true},
		{probe.KindPAPI, true, true},
	}
	cycles, err := runPar(len(specs), func(i int) (uint64, error) {
		return run(specs[i].kind)
	})
	if err != nil {
		return nil, err
	}
	base := cycles[0]
	perRead := func(c uint64) float64 {
		if c <= base {
			return 0
		}
		return float64(c-base) / float64(iters)
	}

	var limitCost float64
	for i, sp := range specs[1:] {
		c := perRead(cycles[1+i])
		if sp.kind == probe.KindLimit {
			limitCost = c
		}
		r.Rows = append(r.Rows, T1Row{
			Method:      string(sp.kind),
			CyclesRead:  c,
			NsRead:      c * NsPerCycle,
			Precise:     sp.precise,
			Virtualized: sp.virtualized,
		})
	}
	// Sampling has no reads; its cost is per-interrupt, reported as 0
	// per read with precision marked absent.
	r.Rows = append(r.Rows, T1Row{Method: string(probe.KindSample)})
	for i := range r.Rows {
		if limitCost > 0 {
			r.Rows[i].RatioVsLiMT = r.Rows[i].CyclesRead / limitCost
		}
	}
	return r, nil
}

// Row returns the named method's row.
func (r *T1Result) Row(method string) (T1Row, bool) {
	for _, row := range r.Rows {
		if row.Method == method {
			return row, true
		}
	}
	return T1Row{}, false
}

// Render writes the table.
func (r *T1Result) Render(w io.Writer) {
	t := tabwrite.New("Table 1: counter access methods (per-read cost)",
		"method", "cycles/read", "ns/read", "vs LiMiT", "precise", "virtualized")
	for _, row := range r.Rows {
		precise, virt := "no", "no"
		if row.Precise {
			precise = "yes"
		}
		if row.Virtualized {
			virt = "yes"
		}
		if row.Method == string(probe.KindSample) {
			t.Row(row.Method, "-", "-", "-", "no (statistical)", "yes")
			continue
		}
		t.Row(row.Method, row.CyclesRead, row.NsRead, row.RatioVsLiMT, precise, virt)
	}
	t.Render(w)
}
