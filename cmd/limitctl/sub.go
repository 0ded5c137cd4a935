package main

import (
	"flag"
	"fmt"
	"io"

	"limitsim/internal/flagcheck"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
	"limitsim/internal/workloads"
)

// The trace and stats subcommands share the workload-construction
// flags of the main mode but emit structured output; both are plain
// functions over writers so tests can run them in-process and assert
// byte-level determinism.

// runTrace runs one workload with the kernel tracer attached and
// emits the retained event stream in the selected format. Returns the
// process exit code.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limitctl trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "mysql", "workload: mysql[-3.23|-4.1|-5.1], apache, firefox, forkjoin")
	method := fs.String("method", "limit", "access method: limit, perf, papi, rdtsc, sample, none")
	cores := fs.Int("cores", 4, "simulated core count")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	n := fs.Int("n", 65536, "trace ring capacity (last N events are kept)")
	period := fs.Uint64("period", 100_000, "sampling period (method=sample)")
	format := fs.String("format", "text", "output format: text, chrome, jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limitctl trace: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *format {
	case "text", "chrome", "jsonl":
	default:
		fmt.Fprintf(stderr, "limitctl trace: unknown -format %q (text, chrome, jsonl)\n", *format)
		fs.Usage()
		return 2
	}
	if !flagcheck.OK(stderr, "limitctl trace", append(workloadChecks(*cores, *scale),
		flagcheck.AtLeast("n", *n, 1), periodCheck(*period))...) {
		return 2
	}

	buf, _, code := runTraced(*appName, *method, *cores, *scale, *n, *period, stderr)
	if code != 0 {
		return code
	}
	switch *format {
	case "chrome":
		if err := trace.WriteChrome(stdout, buf.Events(), machine.CyclesPerNanosecond*1000); err != nil {
			fmt.Fprintf(stderr, "limitctl trace: %v\n", err)
			return 1
		}
	case "jsonl":
		if err := trace.WriteJSONL(stdout, buf.Events()); err != nil {
			fmt.Fprintf(stderr, "limitctl trace: %v\n", err)
			return 1
		}
	default:
		buf.Dump(stdout, 0)
	}
	return 0
}

// runStats runs one workload with the telemetry layer attached —
// kernel self-metrics, slot-ledger mirrors, and host-side limit read
// accounting — and emits the registry. Returns the process exit code.
func runStats(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limitctl stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "mysql", "workload: mysql[-3.23|-4.1|-5.1], apache, firefox, forkjoin")
	method := fs.String("method", "limit", "access method: limit, perf, papi, rdtsc, sample, none")
	cores := fs.Int("cores", 4, "simulated core count")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	format := fs.String("format", "text", "output format: text, jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limitctl stats: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *format {
	case "text", "jsonl":
	default:
		fmt.Fprintf(stderr, "limitctl stats: unknown -format %q (text, jsonl)\n", *format)
		fs.Usage()
		return 2
	}
	if !flagcheck.OK(stderr, "limitctl stats", workloadChecks(*cores, *scale)...) {
		return 2
	}

	ins, ok := buildInstrumentation(*method, 100_000)
	if !ok {
		fmt.Fprintf(stderr, "limitctl stats: unknown method %q (see -list)\n", *method)
		return 2
	}
	app := workloads.ByName(*appName, ins, *scale)
	if app == nil {
		fmt.Fprintf(stderr, "limitctl stats: unknown app %q\n", *appName)
		return 2
	}

	reg := telemetry.NewRegistry()
	km := kernel.NewMetrics(reg, 0)
	lm := limit.NewMetrics(reg)

	m := machine.New(machine.Config{NumCores: *cores})
	m.Kern.SetMetrics(km)
	limit.SetMetrics(lm)
	defer limit.SetMetrics(nil)

	app.Launch(m)
	res := m.Run(machine.RunLimits{})
	if len(res.Faults) > 0 {
		fmt.Fprintf(stderr, "limitctl stats: faults: %v\n", res.Faults)
		return 1
	}
	// Decode every thread's counters (workers spawn inside the
	// simulation, so walk the kernel's thread table, not Launch's
	// return) so the limit read split reflects the run's actual
	// exact/estimated mix.
	if ins.Active() {
		for _, t := range m.Kern.Threads() {
			for idx := range t.Counters() {
				limit.ThreadValue(t, idx)
			}
		}
	}

	if *format == "jsonl" {
		if err := reg.WriteJSONL(stdout); err != nil {
			fmt.Fprintf(stderr, "limitctl stats: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "%s on %d cores, method=%s: %s\n\n", app.Name, *cores, *method, res)
	reg.Render(stdout)
	return 0
}

// runTraced runs a workload with a tracer of capacity n attached and
// returns the buffer and machine, or a nonzero exit code on error.
func runTraced(appName, method string, cores int, scale float64, n int, period uint64, stderr io.Writer) (*trace.Buffer, *machine.Machine, int) {
	ins, ok := buildInstrumentation(method, period)
	if !ok {
		fmt.Fprintf(stderr, "limitctl trace: unknown method %q (see -list)\n", method)
		return nil, nil, 2
	}
	app := workloads.ByName(appName, ins, scale)
	if app == nil {
		fmt.Fprintf(stderr, "limitctl trace: unknown app %q\n", appName)
		return nil, nil, 2
	}
	m := machine.New(machine.Config{NumCores: cores})
	buf := trace.NewBuffer(n)
	m.Kern.SetTracer(buf)
	app.Launch(m)
	res := m.Run(machine.RunLimits{})
	if len(res.Faults) > 0 {
		fmt.Fprintf(stderr, "limitctl trace: faults: %v\n", res.Faults)
		return nil, nil, 1
	}
	return buf, m, 0
}
