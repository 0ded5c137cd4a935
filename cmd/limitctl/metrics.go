package main

import (
	"fmt"
	"io"
	"sort"

	"limitsim/internal/flagcheck"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/tabwrite"
	"limitsim/internal/workloads"
)

// runMetrics runs one workload with the full derived-metric event set
// opened as multiplexed groups alongside the LiMiT instrumentation,
// then renders derived metrics over the end-of-run totals (-format
// text), streams the raw per-rotation frames as JSONL (-format
// frames), or — with -window N > 0 — evaluates every selected metric
// per fixed cycle window as a time series (text table or, with -format
// jsonl, one window×key object per line). -tenants N > 1 activates the
// guest-scheduler layer, deals workload threads round-robin across
// guests, and stamps every frame with its tenant id; -split
// tenant|thread keys the series per guest or per worker thread.
// Unknown metric names, a negative -window, and flags the chosen
// output cannot use (-window, -split or -metric with -format frames,
// -split without -window) are rejected before any simulation runs.
// Returns the process exit code.
func runMetrics(args []string, stdout, stderr io.Writer) int {
	c := newWorkload("limitctl metrics", stderr, "text", "frames", "jsonl")
	rotation := c.Uint64("rotation", 0, "group rotation quantum in scheduled cycles (0 = kernel default, quantum/6)")
	width := c.Int("width", 4, "events per multiplexed group")
	counters := c.Int("counters", 6, "PMU counter slots (2 are pinned by LiMiT; the rest rotate groups)")
	tenants := c.Int("tenants", 1, "guest VMs; >1 activates the tenant layer and deals threads round-robin")
	metricList := c.String("metric", "", "comma-separated derived metrics to report (default: all built-ins; not with -format frames)")
	window := c.Int64("window", 0, "series window in cycles: > 0 evaluates metrics per window, 0 over end-of-run totals (jsonl needs > 0, frames 0)")
	splitName := c.String("split", "none", "series split: none, tenant, thread (tenant and thread need -window > 0)")
	ins := workloads.LimitInstr()
	pinned := ins.LimitCounters()
	var defs []*metrics.Def
	var split metrics.Split
	if code, ok := c.parse(args, func() []error {
		var derr, serr error
		defs, derr = metricDefs(*metricList)
		split, serr = splitCheck(*splitName)
		// Frames are the raw stream: nothing windows, splits or
		// evaluates them, so a flag that would is a usage error, as
		// is a split without windows to split.
		frames := *c.format == "frames"
		errs := []error{
			flagcheck.AtLeast("tenants", *tenants, 1),
			flagcheck.AtLeast("window", int(*window), 0),
			flagcheck.Check(*c.format != "jsonl" || *window > 0, "window", "positive with -format jsonl", *window),
			flagcheck.Check(!frames || *window == 0, "window", "0 with -format frames", *window),
			flagcheck.Check(!frames || *metricList == "", "metric", "unset with -format frames", *metricList),
			flagcheck.Check(split == metrics.SplitNone || (*window > 0 && !frames), "split", "none with -format frames or -window 0", *splitName),
			serr, derr,
		}
		if err := flagcheck.In("counters", *counters, pinned+1, pmu.MaxCounters); err != nil {
			return append(errs, err)
		}
		// A group wider than the slots the LiMiT counters leave free
		// never loads, and every metric over its events would read n/a.
		free := *counters - pinned
		return append(errs, flagcheck.Check(*width >= 1 && kernel.GroupFits(*width, free),
			"width", fmt.Sprintf("in [1, %d] with -counters %d (LiMiT pins %d)", free, *counters, pinned), *width))
	}); !ok {
		return code
	}

	ins.MuxGroups = workloads.DefaultMuxGroups(*width)
	f := pmu.DefaultFeatures()
	f.NumCounters = *counters
	kcfg := kernel.DefaultConfig()
	kcfg.MuxQuantum = *rotation
	kcfg.Tenants = *tenants
	s, code := c.simulate(ins, machine.Config{PMU: f, Kernel: kcfg}, nil)
	if code != 0 {
		return code
	}

	frames := metrics.FromKernel(s.m.Kern)
	if *c.format == "frames" {
		return c.exitCode(metrics.WriteJSONL(stdout, frames))
	}
	var rows []metrics.WindowRow
	if *window > 0 {
		ss, err := metrics.Windowed(frames, uint64(*window), split)
		if err != nil {
			return c.exitCode(err)
		}
		rows = ss.Rows(defs)
		if *c.format == "jsonl" {
			return c.exitCode(metrics.WriteSeriesJSONL(stdout, rows))
		}
	}

	fmt.Fprintf(stdout, "%s on %d cores: %s\n", s.app.Name, *c.cores, s.res)
	fmt.Fprintf(stdout, "%d frames, %d rotations, rotation quantum %d cycles\n\n",
		len(frames), s.m.Kern.Stats.MuxRotations, s.m.Kern.Config().MuxQuantum)
	if *window > 0 {
		title := fmt.Sprintf("Windowed metrics (window=%d cycles, split=%s)", *window, split)
		metrics.RenderSeriesText(stdout, title, rows)
		return 0
	}

	totals := metrics.Totals(frames)
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	et := tabwrite.New("Event totals (scaled estimates, summed across threads)", "event", "estimate")
	for _, name := range names {
		et.Row(name, totals[name])
	}
	et.Render(stdout)

	env := metrics.Env(totals)
	dt := tabwrite.New("Derived metrics", "metric", "value", "definition")
	for _, d := range defs {
		v, err := d.Eval(env)
		if err != nil {
			dt.Row(d.Name, "n/a", fmt.Sprintf("%s (%v)", d.Expr, err))
			continue
		}
		dt.Row(d.Name, fmt.Sprintf("%.4f", v), d.Expr)
	}
	dt.Render(stdout)
	return 0
}
