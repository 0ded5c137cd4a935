package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"limitsim/internal/flagcheck"
	"limitsim/internal/machine"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/profile"
	"limitsim/internal/report"
	"limitsim/internal/runner"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
	"limitsim/internal/workloads"
)

// parseEvent resolves one -events element ("l1d-miss" or "cycles:k").
func parseEvent(s string) (profile.BundleEvent, error) {
	name, allRings := strings.CutSuffix(s, ":k")
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		if ev.String() == name {
			return profile.BundleEvent{Event: ev, AllRings: allRings}, nil
		}
	}
	return profile.BundleEvent{}, fmt.Errorf("-events: unknown event %q", name)
}

// parseBundle resolves a comma-separated -events value. The first
// event must be user-ring cycles: the profiler attributes every other
// event against it.
func parseBundle(s string) ([]profile.BundleEvent, error) {
	var out []profile.BundleEvent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if len(out) == 0 || out[0] != (profile.BundleEvent{Event: pmu.EvCycles}) {
		return nil, fmt.Errorf("-events: the first bundle event must be user-ring cycles")
	}
	return out, nil
}

// calibrateStride runs a short uninstrumented baseline and a stride-1
// profiled run at a quarter of the scale — the two A/B arms fan out
// across the runner engine — then picks the stride that keeps the
// projected slowdown under budget (the F2 density curve is linear in
// 1/stride). A nonzero code is the exit code.
func calibrateStride(c *command, spec profile.Spec, parallel int, budget float64, stdout io.Writer) (stride, code int) {
	spec.Stride = 1
	var apps []*workloads.App
	for _, ins := range []workloads.Instrumentation{{Kind: probe.KindNull}, workloads.ProfileInstr(spec)} {
		app := c.lookup(ins, *c.scale*0.25)
		if app == nil {
			return 0, 2
		}
		apps = append(apps, app)
	}
	cfg := machine.Config{NumCores: *c.cores}
	cycles, err := runner.Map(runner.Config{Jobs: len(apps), Parallel: parallel}, func(j, _ int) (uint64, error) {
		s := launch(apps[j], cfg, nil)
		return s.res.Cycles, s.res.Err
	})
	if err != nil {
		return 0, c.exitCode(fmt.Errorf("%s: %w", *c.app, err))
	}
	slowdown := float64(cycles[1]) / float64(cycles[0])
	stride = profile.StrideForBudget(slowdown, budget)
	fmt.Fprintf(stdout, "calibration: stride-1 slowdown %.3fx -> stride %d for budget %.3fx\n\n",
		slowdown, stride, budget)
	return stride, 0
}

// runProfile runs one workload with the region-attribution profiler
// attached and emits its ranked bottleneck report. Every annotated
// region boundary (lock acquires, critical sections, request phases,
// syscall spans) reads a configurable multi-event LiMiT bundle; the
// report ranks regions by attributed self-cost and classifies each as
// memory-bound, compute-bound, kernel-bound or contention.
//
// -events takes a comma-separated bundle; a ":k" suffix counts the
// event across all rings (user+kernel) instead of user-only. -stride
// measures every Nth boundary per region; -budget instead calibrates
// the stride so the projected slowdown stays under the budget. -flame
// writes the self-time hierarchy as Chrome trace-event JSON, loadable
// in Perfetto, and -html a self-contained report with the ranked table
// and the flame view. Output is byte-deterministic for a fixed flag
// set, at every -parallel width. Returns the process exit code.
func runProfile(args []string, stdout, stderr io.Writer) int {
	c := newWorkload("limitctl profile", stderr, "text", "markdown", "jsonl")
	events := c.String("events", "", `bundle as CSV; ":k" suffix = all rings (default cycles,cycles:k,l1d-miss,branch-miss)`)
	stride := c.Int("stride", 1, "measure every Nth boundary per region")
	budget := c.Float64("budget", 0, "target slowdown bound, > 1 (e.g. 1.05); 0 = off, else calibrates the stride")
	top := c.Int("top", 10, "rows in the ranked report")
	flame := c.String("flame", "", "write the self-time hierarchy as Chrome trace JSON to FILE")
	htmlOut := c.String("html", "", "write a self-contained HTML report (ranked table + flame) to FILE")
	hist := c.Bool("hist", false, "append per-region latency histograms (text format)")
	withMetrics := c.Bool("metrics", false, "append the profiler's telemetry registry (text format)")
	parallel := c.Int("parallel", 0, "worker count calibration arms fan out across (0 = GOMAXPROCS, 1 = serial); output is byte-identical at every width")
	spec := profile.DefaultSpec()
	if code, ok := c.parse(args, func() []error {
		var err error
		if *events != "" {
			spec.Events, err = parseBundle(*events)
		}
		return []error{
			err,
			flagcheck.AtLeast("stride", *stride, 1),
			// A stride's slowdown is always above 1, so no stride meets
			// a bound at or below it.
			flagcheck.Check(*budget == 0 || (*budget > 1 && !math.IsInf(*budget, 1)), "budget", "0 (off) or a finite bound > 1", *budget),
			flagcheck.AtLeast("top", *top, 1),
			flagcheck.AtLeast("parallel", *parallel, 0),
		}
	}); !ok {
		return code
	}

	spec.Stride = *stride
	if *budget > 0 {
		s, code := calibrateStride(c, spec, *parallel, *budget, stdout)
		if code != 0 {
			return code
		}
		spec.Stride = s
	}
	s, code := c.simulate(workloads.ProfileInstr(spec), machine.Config{}, nil)
	if code != 0 {
		return code
	}
	prof, err := workloads.CollectProfile(s.app)
	if err != nil {
		return c.exitCode(err)
	}
	rep := profile.NewReport(prof)

	switch *c.format {
	case "markdown":
		rep.RenderMarkdown(stdout, *top)
	case "jsonl":
		if err := rep.WriteJSONL(stdout); err != nil {
			return c.exitCode(err)
		}
	default:
		rep.RenderText(stdout, *top)
		if *hist {
			fmt.Fprintln(stdout)
			rep.RenderHistograms(stdout)
		}
		if *withMetrics {
			reg := telemetry.NewRegistry()
			prof.Account(profile.NewMetrics(reg))
			fmt.Fprintln(stdout)
			reg.Render(stdout)
		}
	}

	if *flame != "" {
		if err := writeFile(*flame, func(w io.Writer) error {
			return trace.WriteChromeSpans(w, prof.FlameSpans(), 0)
		}); err != nil {
			return c.exitCode(err)
		}
	}
	if *htmlOut != "" {
		a := report.New(
			fmt.Sprintf("Bottleneck profile: %s", prof.App),
			fmt.Sprintf("stride %d, %d threads", prof.Spec.Stride, prof.Threads))
		self := &profile.SelfCostRecord{SelfCycles: rep.Self.Pair(), PairVsBareRatio: rep.Self.Ratio()}
		a.AddFindings("Ranked bottlenecks", rep.Records(), self)
		a.AddFlame("Flame view", prof.FlameSpans())
		return c.exitCode(writeFile(*htmlOut, a.Render))
	}
	return 0
}
