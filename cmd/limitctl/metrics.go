package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

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
// frames), or — with -series -window N — evaluates every selected
// metric per fixed cycle window as a time series (text table or, with
// -format jsonl, one window×key object per line). -tenants N > 1
// activates the guest-scheduler layer, deals workload threads
// round-robin across guests, and stamps every frame with its tenant
// id; -split tenant|thread keys the series per guest or per worker
// thread. Unknown metric names and a non-positive -window are rejected
// before any simulation runs. Returns the process exit code.
func runMetrics(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limitctl metrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "mysql", "workload: mysql[-3.23|-4.1|-5.1], apache, firefox, forkjoin")
	cores := fs.Int("cores", 4, "simulated core count")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	rotation := fs.Uint64("rotation", 0, "group rotation quantum in scheduled cycles (0 = kernel default, quantum/6)")
	width := fs.Int("width", 4, "events per multiplexed group")
	counters := fs.Int("counters", 6, "PMU counter slots (2 are pinned by LiMiT; the rest rotate groups)")
	tenants := fs.Int("tenants", 1, "guest VMs; >1 activates the tenant layer and deals threads round-robin")
	metricList := fs.String("metric", "", "comma-separated derived metrics to report (default: all built-ins)")
	series := fs.Bool("series", false, "evaluate metrics per fixed cycle window instead of end-of-run totals")
	window := fs.Int64("window", 0, "series window size in cycles (required with -series, must be positive)")
	splitName := fs.String("split", "none", "series split: none, tenant, thread")
	format := fs.String("format", "text", "output format: text, frames, jsonl (jsonl requires -series)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limitctl metrics: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *format {
	case "text", "frames", "jsonl":
	default:
		fmt.Fprintf(stderr, "limitctl metrics: unknown -format %q (text, frames, jsonl)\n", *format)
		fs.Usage()
		return 2
	}

	// Series-mode validation before anything runs: -window > 0 selects
	// the windowed series (with or without the -series spelling), and a
	// non-positive -window with -series is a usage error, never a
	// silent fallback to totals.
	seriesMode := *series || *window > 0
	if seriesMode && *window <= 0 {
		fmt.Fprintf(stderr, "limitctl metrics: -window must be positive (got %d)\n", *window)
		fs.Usage()
		return 2
	}
	if *window < 0 {
		fmt.Fprintf(stderr, "limitctl metrics: -window must be positive (got %d)\n", *window)
		fs.Usage()
		return 2
	}
	split, ok := metrics.ParseSplit(*splitName)
	if !ok {
		fmt.Fprintf(stderr, "limitctl metrics: unknown -split %q (none, tenant, thread)\n", *splitName)
		fs.Usage()
		return 2
	}
	if *format == "jsonl" && !seriesMode {
		fmt.Fprintln(stderr, "limitctl metrics: -format jsonl requires -series -window N")
		fs.Usage()
		return 2
	}
	ins := workloads.LimitInstr()
	pinned := ins.LimitCounters()
	if !flagcheck.OK(stderr, "limitctl metrics", append(workloadChecks(*cores, *scale),
		flagcheck.AtLeast("tenants", *tenants, 1),
		flagcheck.In("counters", *counters, pinned+1, pmu.MaxCounters))...) {
		return 2
	}
	// A group wider than the slots the LiMiT counters leave free never
	// loads, and every metric over its events would read n/a.
	free := *counters - pinned
	if !flagcheck.OK(stderr, "limitctl metrics", flagcheck.Check(*width >= 1 && kernel.GroupFits(*width, free),
		"width", fmt.Sprintf("in [1, %d] with -counters %d (LiMiT pins %d)", free, *counters, pinned), *width)) {
		return 2
	}

	// Resolve the metric selection before running anything: a typo must
	// cost a usage message, not a simulation.
	var defs []*metrics.Def
	if *metricList == "" {
		for i := range metrics.Builtin {
			defs = append(defs, &metrics.Builtin[i])
		}
	} else {
		for _, name := range strings.Split(*metricList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			d := metrics.Lookup(name)
			if d == nil {
				fmt.Fprintf(stderr, "limitctl metrics: unknown metric %q; built-ins:\n", name)
				for i := range metrics.Builtin {
					fmt.Fprintf(stderr, "  %-18s %s\n", metrics.Builtin[i].Name, metrics.Builtin[i].Desc)
				}
				return 2
			}
			defs = append(defs, d)
		}
		if len(defs) == 0 {
			fmt.Fprintln(stderr, "limitctl metrics: -metric selected no metrics")
			return 2
		}
	}

	ins.MuxGroups = workloads.DefaultMuxGroups(*width)
	app := workloads.ByName(*appName, ins, *scale)
	if app == nil {
		fmt.Fprintf(stderr, "limitctl metrics: unknown app %q\n", *appName)
		return 2
	}

	f := pmu.DefaultFeatures()
	f.NumCounters = *counters
	kcfg := kernel.DefaultConfig()
	kcfg.MuxQuantum = *rotation
	kcfg.Tenants = *tenants
	m := machine.New(machine.Config{NumCores: *cores, PMU: f, Kernel: kcfg})
	threads := app.Launch(m)
	if *tenants > 1 {
		for i, t := range threads {
			t.Tenant = i % *tenants // deal threads round-robin across guests
		}
	}
	res := m.Run(machine.RunLimits{})
	if len(res.Faults) > 0 {
		fmt.Fprintf(stderr, "limitctl metrics: faults: %v\n", res.Faults)
		return 1
	}

	frames := metrics.FromKernel(m.Kern)
	if *format == "frames" {
		if err := metrics.WriteJSONL(stdout, frames); err != nil {
			fmt.Fprintf(stderr, "limitctl metrics: %v\n", err)
			return 1
		}
		return 0
	}

	if seriesMode {
		ss, err := metrics.Windowed(frames, uint64(*window), split)
		if err != nil {
			fmt.Fprintf(stderr, "limitctl metrics: %v\n", err)
			return 1
		}
		rows := ss.Rows(defs)
		if *format == "jsonl" {
			if err := metrics.WriteSeriesJSONL(stdout, rows); err != nil {
				fmt.Fprintf(stderr, "limitctl metrics: %v\n", err)
				return 1
			}
			return 0
		}
		fmt.Fprintf(stdout, "%s on %d cores: %s\n", app.Name, *cores, res)
		fmt.Fprintf(stdout, "%d frames, %d rotations, rotation quantum %d cycles\n\n",
			len(frames), m.Kern.Stats.MuxRotations, m.Kern.Config().MuxQuantum)
		title := fmt.Sprintf("Windowed metrics (window=%d cycles, split=%s)", *window, split)
		metrics.RenderSeriesText(stdout, title, rows)
		return 0
	}

	fmt.Fprintf(stdout, "%s on %d cores: %s\n", app.Name, *cores, res)
	fmt.Fprintf(stdout, "%d frames, %d rotations, rotation quantum %d cycles\n\n",
		len(frames), m.Kern.Stats.MuxRotations, m.Kern.Config().MuxQuantum)

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
		v, err := d.Compiled().Eval(env)
		if err != nil {
			dt.Row(d.Name, "n/a", fmt.Sprintf("%s (%v)", d.Expr, err))
			continue
		}
		dt.Row(d.Name, fmt.Sprintf("%.4f", v), d.Expr)
	}
	dt.Render(stdout)
	return 0
}
