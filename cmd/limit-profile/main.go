// Command limit-profile runs one workload model with the
// region-attribution profiler attached and emits its ranked bottleneck
// report — the paper's title use case as a tool. Every annotated
// region boundary (lock acquires, critical sections, request phases,
// syscall spans) reads a configurable multi-event LiMiT bundle; the
// report ranks regions by attributed self-cost and classifies each as
// memory-bound, compute-bound, kernel-bound or contention.
//
// Usage:
//
//	limit-profile -workload mysql|mysql-3.23|mysql-4.1|mysql-5.1|apache|firefox|forkjoin
//	              [-cores 4] [-scale 1.0]
//	              [-events cycles,cycles:k,l1d-miss,branch-miss]
//	              [-stride N | -budget 1.05]
//	              [-top 10] [-format text|markdown|jsonl]
//	              [-flame FILE] [-html FILE] [-hist] [-metrics] [-parallel N]
//
// -events takes a comma-separated bundle; a ":k" suffix counts the
// event across all rings (user+kernel) instead of user-only. The first
// event must be user-ring cycles. -stride measures every Nth boundary
// per region; -budget instead calibrates the stride from a short
// stride-1 run against an uninstrumented baseline so the projected
// slowdown stays under the budget (the F2 density curve is linear in
// 1/stride). -flame writes the self-time hierarchy as Chrome
// trace-event JSON, loadable in Perfetto. Output is byte-deterministic
// for a fixed flag set.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
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

func main() { os.Exit(runProfile(os.Args[1:], os.Stdout, os.Stderr)) }

// parseEvent resolves one -events element ("l1d-miss" or "cycles:k").
func parseEvent(s string) (profile.BundleEvent, error) {
	name, allRings := strings.CutSuffix(s, ":k")
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		if ev.String() == name {
			return profile.BundleEvent{Event: ev, AllRings: allRings}, nil
		}
	}
	return profile.BundleEvent{}, fmt.Errorf("unknown event %q", name)
}

// parseBundle resolves a comma-separated -events value.
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
	if len(out) == 0 {
		return nil, fmt.Errorf("empty bundle")
	}
	return out, nil
}

// runCycles builds and runs one copy of the workload, returning the
// app and final machine cycle count.
func runCycles(name string, ins workloads.Instrumentation, scale float64, cores int, stderr io.Writer) (*workloads.App, uint64, int) {
	app := workloads.ByName(name, ins, scale)
	if app == nil {
		fmt.Fprintf(stderr, "limit-profile: unknown workload %q\n", name)
		return nil, 0, 2
	}
	m := machine.New(machine.Config{NumCores: cores})
	app.Launch(m)
	res := m.Run(machine.RunLimits{})
	if res.Err != nil {
		fmt.Fprintf(stderr, "limit-profile: %s: %v\n", name, res.Err)
		return nil, 0, 1
	}
	return app, res.Cycles, 0
}

// calibrateStride runs a short uninstrumented baseline and a stride-1
// profiled run at reduced scale — the two A/B arms fan out across the
// runner engine — then picks the stride that keeps the projected
// slowdown under budget.
func calibrateStride(name string, spec profile.Spec, scale float64, cores, parallel int, budget float64, stdout, stderr io.Writer) (int, int) {
	calScale := scale * 0.25
	if workloads.ByName(name, workloads.Instrumentation{Kind: probe.KindNull}, calScale) == nil {
		fmt.Fprintf(stderr, "limit-profile: unknown workload %q\n", name)
		return 0, 2
	}
	calSpec := spec
	calSpec.Stride = 1
	arms := []workloads.Instrumentation{
		{Kind: probe.KindNull},
		workloads.ProfileInstr(calSpec),
	}
	cycles, err := runner.Map(runner.Config{Jobs: len(arms), Parallel: parallel}, func(j, _ int) (uint64, error) {
		app := workloads.ByName(name, arms[j], calScale)
		m := machine.New(machine.Config{NumCores: cores})
		app.Launch(m)
		res := m.Run(machine.RunLimits{})
		if res.Err != nil {
			return 0, res.Err
		}
		return res.Cycles, nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "limit-profile: %s: %v\n", name, err)
		return 0, 1
	}
	slowdown := float64(cycles[1]) / float64(cycles[0])
	stride := profile.StrideForBudget(slowdown, budget)
	fmt.Fprintf(stdout, "calibration: stride-1 slowdown %.3fx -> stride %d for budget %.3fx\n\n",
		slowdown, stride, budget)
	return stride, 0
}

// runProfile is the CLI body; split from main so the tests run it
// in-process and assert byte-level determinism of stdout.
func runProfile(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limit-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "mysql", "workload: mysql[-3.23|-4.1|-5.1], apache, firefox, forkjoin")
	cores := fs.Int("cores", 4, "simulated core count")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	events := fs.String("events", "", `bundle as CSV; ":k" suffix = all rings (default cycles,cycles:k,l1d-miss,branch-miss)`)
	stride := fs.Int("stride", 1, "measure every Nth boundary per region")
	budget := fs.Float64("budget", 0, "target slowdown bound, > 1 (e.g. 1.05); 0 = off, else calibrates the stride")
	top := fs.Int("top", 10, "rows in the ranked report")
	format := fs.String("format", "text", "output format: text, markdown, jsonl")
	flame := fs.String("flame", "", "write the self-time hierarchy as Chrome trace JSON to FILE")
	htmlOut := fs.String("html", "", "write a self-contained HTML report (ranked table + flame) to FILE")
	hist := fs.Bool("hist", false, "append per-region latency histograms (text format)")
	metrics := fs.Bool("metrics", false, "append the profiler's telemetry registry (text format)")
	parallel := fs.Int("parallel", 0, "worker count calibration arms fan out across (0 = GOMAXPROCS, 1 = serial); output is byte-identical at every width")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limit-profile: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if !flagcheck.OK(stderr, "limit-profile",
		flagcheck.AtLeast("cores", *cores, 1),
		flagcheck.Positive("scale", *scale),
		flagcheck.AtLeast("stride", *stride, 1),
		// A stride's slowdown is always above 1, so no stride meets a
		// bound at or below it.
		flagcheck.Check(*budget == 0 || (*budget > 1 && !math.IsInf(*budget, 1)), "budget", "0 (off) or a finite bound > 1", *budget),
		flagcheck.AtLeast("top", *top, 1),
		flagcheck.AtLeast("parallel", *parallel, 0),
	) {
		return 2
	}
	switch *format {
	case "text", "markdown", "jsonl":
	default:
		fmt.Fprintf(stderr, "limit-profile: unknown -format %q (text, markdown, jsonl)\n", *format)
		fs.Usage()
		return 2
	}

	spec := profile.DefaultSpec()
	if *events != "" {
		bundle, err := parseBundle(*events)
		if err != nil {
			fmt.Fprintf(stderr, "limit-profile: -events: %v\n", err)
			return 2
		}
		spec.Events = bundle
	}
	if len(spec.Events) == 0 || !(spec.Events[0] == profile.BundleEvent{Event: pmu.EvCycles}) {
		fmt.Fprintf(stderr, "limit-profile: the first bundle event must be user-ring cycles\n")
		return 2
	}
	spec.Stride = *stride

	if *budget > 0 {
		s, code := calibrateStride(*workload, spec, *scale, *cores, *parallel, *budget, stdout, stderr)
		if code != 0 {
			return code
		}
		spec.Stride = s
	}

	app, _, code := runCycles(*workload, workloads.ProfileInstr(spec), *scale, *cores, stderr)
	if code != 0 {
		return code
	}
	prof, err := workloads.CollectProfile(app)
	if err != nil {
		fmt.Fprintf(stderr, "limit-profile: %v\n", err)
		return 1
	}
	rep := profile.NewReport(prof)

	switch *format {
	case "markdown":
		rep.RenderMarkdown(stdout, *top)
	case "jsonl":
		if err := rep.WriteJSONL(stdout); err != nil {
			fmt.Fprintf(stderr, "limit-profile: %v\n", err)
			return 1
		}
	default:
		rep.RenderText(stdout, *top)
		if *hist {
			fmt.Fprintln(stdout)
			rep.RenderHistograms(stdout)
		}
		if *metrics {
			reg := telemetry.NewRegistry()
			prof.Account(profile.NewMetrics(reg))
			fmt.Fprintln(stdout)
			reg.Render(stdout)
		}
	}

	if *flame != "" {
		f, err := os.Create(*flame)
		if err != nil {
			fmt.Fprintf(stderr, "limit-profile: %v\n", err)
			return 1
		}
		werr := trace.WriteChromeSpans(f, prof.FlameSpans(), 0)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(stderr, "limit-profile: writing %s: %v%v\n", *flame, werr, cerr)
			return 1
		}
	}

	if *htmlOut != "" {
		a := report.New(
			fmt.Sprintf("Bottleneck profile: %s", prof.App),
			fmt.Sprintf("stride %d, %d threads", prof.Spec.Stride, prof.Threads))
		self := &profile.SelfCostRecord{SelfCycles: rep.Self.Pair(), PairVsBareRatio: rep.Self.Ratio()}
		a.AddFindings("Ranked bottlenecks", rep.Records(), self)
		a.AddFlame("Flame view", prof.FlameSpans())
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintf(stderr, "limit-profile: %v\n", err)
			return 1
		}
		werr := a.Render(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(stderr, "limit-profile: writing %s: %v%v\n", *htmlOut, werr, cerr)
			return 1
		}
	}
	return 0
}
