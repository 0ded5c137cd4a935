// Package metrics turns per-rotation PMU sample frames into derived
// metrics: the frame stream and its JSONL codec, end-of-run totals,
// fixed-cycle windowed series, and the built-in metric catalogue.
//
// A metric reads frame samples by name: the event name plus an
// optional ring suffix — "cycles" is the user ring, "cycles:k" kernel
// only, "cycles:uk" both. Division by zero yields 0, never NaN or Inf:
// a rate over nothing measured is "nothing", which keeps downstream
// renders and JSON byte-stable.
package metrics

import (
	"fmt"
	"math"
)

// Def is one built-in derived-metric definition. Inputs are the sample
// names it reads, in the order Expr names them; they come from the
// default multiplexed group set (workloads.DefaultMuxGroups). Expr is
// the formula as printed, spelling '-' in event names as '_'. A
// definition evaluated over totals missing one of its inputs reports
// an error rather than a silent 0.
type Def struct {
	Name   string
	Expr   string
	Desc   string
	Inputs []string

	// fn computes the metric from the values of Inputs, in order; the
	// arguments past len(Inputs) are 0. It runs Expr's operations in
	// the order Expr writes them, so values match the printed formula
	// bit for bit.
	fn func(a, b, c float64) float64
}

// Eval computes the metric over an environment of sample values. An
// input missing from env is an error naming the first one missing — a
// metric must never silently read 0 for an event that was not
// measured. A NaN or infinite result collapses to 0 under the same
// policy as division by zero.
func (d *Def) Eval(env map[string]float64) (float64, error) {
	var in [3]float64
	for i, name := range d.Inputs {
		v, ok := env[name]
		if !ok {
			return 0, fmt.Errorf("metrics: unknown event %q", name)
		}
		in[i] = v
	}
	v := d.fn(in[0], in[1], in[2])
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, nil
	}
	return v, nil
}

// div is x / y under the division policy: a rate over nothing is 0.
func div(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// ratio is the two-input metric x / y; perAccess divides by the sum of
// loads and stores.
func ratio(x, y, _ float64) float64              { return div(x, y) }
func perAccess(x, loads, stores float64) float64 { return div(x, loads+stores) }

// Builtin is the derived-metric catalogue: classic rates (CPI, miss
// ratios), the paper's kernel-share lens, and a TMA-style breakdown.
// The TMA entries are proxies calibrated to the simulated in-order
// core: retiring is instructions per cycle (the core is scalar, so an
// IPC of 1 is the roof), frontend-bound charges each branch mispredict
// its 15-cycle redirect penalty (cpu.Cost.MispredictPenalty), and
// backend-bound is the remainder — memory and compute stalls.
var Builtin = []Def{
	{
		Name:   "cpi",
		Expr:   "cycles / instructions",
		Desc:   "user cycles per retired instruction",
		Inputs: []string{"cycles", "instructions"},
		fn:     ratio,
	},
	{
		Name:   "ipc",
		Expr:   "instructions / cycles",
		Desc:   "retired instructions per user cycle",
		Inputs: []string{"instructions", "cycles"},
		fn:     ratio,
	},
	{
		Name:   "kernel_share",
		Expr:   "cycles:k / cycles:uk",
		Desc:   "fraction of scheduled cycles spent in the kernel ring",
		Inputs: []string{"cycles:k", "cycles:uk"},
		fn:     ratio,
	},
	{
		Name:   "branch_miss_rate",
		Expr:   "branch_miss / branches",
		Desc:   "branch mispredicts per branch",
		Inputs: []string{"branch-miss", "branches"},
		fn:     ratio,
	},
	{
		Name:   "l1d_miss_rate",
		Expr:   "l1d_miss / loads",
		Desc:   "L1D misses per load",
		Inputs: []string{"l1d-miss", "loads"},
		fn:     ratio,
	},
	{
		Name:   "llc_miss_rate",
		Expr:   "llc_miss / loads",
		Desc:   "LLC misses per load",
		Inputs: []string{"llc-miss", "loads"},
		fn:     ratio,
	},
	{
		Name:   "dtlb_miss_rate",
		Expr:   "dtlb_miss / (loads + stores)",
		Desc:   "DTLB misses per data access",
		Inputs: []string{"dtlb-miss", "loads", "stores"},
		fn:     perAccess,
	},
	{
		Name:   "dtlb_walk_rate",
		Expr:   "dtlb_walk / (loads + stores)",
		Desc:   "page walks per data access",
		Inputs: []string{"dtlb-walk", "loads", "stores"},
		fn:     perAccess,
	},
	{
		Name:   "tma_retiring",
		Expr:   "min(instructions / cycles, 1)",
		Desc:   "TMA proxy: issue slots doing useful work (IPC vs scalar roof)",
		Inputs: []string{"instructions", "cycles"},
		fn:     func(i, c, _ float64) float64 { return min(div(i, c), 1) },
	},
	{
		Name:   "tma_frontend",
		Expr:   "min(15 * branch_miss / cycles, 1)",
		Desc:   "TMA proxy: slots lost to branch redirects (15-cycle penalty)",
		Inputs: []string{"branch-miss", "cycles"},
		fn:     func(bm, c, _ float64) float64 { return min(div(15*bm, c), 1) },
	},
	{
		Name:   "tma_backend",
		Expr:   "max(1 - instructions / cycles - 15 * branch_miss / cycles, 0)",
		Desc:   "TMA proxy: slots lost to memory and execution stalls",
		Inputs: []string{"instructions", "cycles", "branch-miss"},
		fn:     func(i, c, bm float64) float64 { return max(1-div(i, c)-div(15*bm, c), 0) },
	},
}

// Lookup returns the built-in definition named name, or nil.
func Lookup(name string) *Def {
	for i := range Builtin {
		if Builtin[i].Name == name {
			return &Builtin[i]
		}
	}
	return nil
}
