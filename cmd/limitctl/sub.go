package main

import (
	"fmt"
	"io"

	"limitsim/internal/flagcheck"
	"limitsim/internal/kernel"
	"limitsim/internal/limit"
	"limitsim/internal/machine"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
)

// The trace and stats subcommands run a workload like run mode but
// emit structured output; both are plain functions over writers so
// tests can run them in-process and assert byte-level determinism.

// runTrace runs one workload with the kernel tracer attached and
// emits the retained event stream in the selected format. Returns the
// process exit code.
func runTrace(args []string, stdout, stderr io.Writer) int {
	c := newWorkload("limitctl trace", stderr, "text", "chrome", "jsonl")
	method := c.String("method", "limit", methodUsage)
	n := c.Int("n", 65536, "trace ring capacity (last N events are kept)")
	period := c.Uint64("period", 100_000, "sampling period (method=sample)")
	if code, ok := c.parse(args, func() []error {
		return []error{flagcheck.AtLeast("n", *n, 1), periodCheck(*period), methodCheck(*method)}
	}); !ok {
		return code
	}

	buf := trace.NewBuffer(*n)
	attach := func(m *machine.Machine) { m.Kern.SetTracer(buf) }
	if _, code := c.simulate(instrumentation(*method, *period), machine.Config{}, attach); code != 0 {
		return code
	}
	switch *c.format {
	case "chrome":
		return c.exitCode(trace.WriteChrome(stdout, buf.Events(), machine.CyclesPerNanosecond*1000))
	case "jsonl":
		return c.exitCode(trace.WriteJSONL(stdout, buf.Events()))
	}
	buf.Dump(stdout, 0)
	return 0
}

// runStats runs one workload with the telemetry layer attached —
// kernel self-metrics, slot-ledger mirrors, and the split of the
// host-side counter reads into exact and estimated values — and emits
// the registry. Returns the process exit code.
func runStats(args []string, stdout, stderr io.Writer) int {
	c := newWorkload("limitctl stats", stderr, "text", "jsonl")
	method := c.String("method", "limit", methodUsage)
	if code, ok := c.parse(args, func() []error { return []error{methodCheck(*method)} }); !ok {
		return code
	}

	reg := telemetry.NewRegistry()
	km := kernel.NewMetrics(reg, 0)
	exact, estimated := reg.Counter("limit.reads.exact"), reg.Counter("limit.reads.estimated")
	ins := instrumentation(*method, 100_000)
	s, code := c.simulate(ins, machine.Config{}, func(m *machine.Machine) { m.Kern.SetMetrics(km) })
	if code != 0 {
		return code
	}
	// Decode every thread's counters (workers spawn inside the
	// simulation, so walk the kernel's thread table, not Launch's
	// return) so the read split reflects the run's actual
	// exact/estimated mix.
	if ins.Active() {
		for _, t := range s.m.Kern.Threads() {
			for idx := range t.Counters() {
				if _, est, err := limit.ThreadValue(t, idx); err != nil {
					continue
				} else if est {
					estimated.Inc()
				} else {
					exact.Inc()
				}
			}
		}
	}

	if *c.format == "jsonl" {
		return c.exitCode(reg.WriteJSONL(stdout))
	}
	fmt.Fprintf(stdout, "%s on %d cores, method=%s: %s\n\n", s.app.Name, *c.cores, *method, s.res)
	reg.Render(stdout)
	return 0
}
