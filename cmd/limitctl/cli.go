package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"limitsim/internal/flagcheck"
	"limitsim/internal/kernel"
	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/workloads"
)

// The front end every subcommand shares: one flag set with an optional
// -format, one parse step, and for the workload subcommands (run,
// trace, stats, metrics, profile) the -app, -cores and -scale flags
// and one run.

// command is one subcommand's flag set. Messages go to its output,
// prefixed with its name.
type command struct {
	*flag.FlagSet
	format     *string  // nil unless the subcommand takes -format
	formats    []string // the accepted -format values; the first is the default
	positional bool     // whether arguments may follow the flags

	// The workload flags; nil outside the workload subcommands.
	app   *string
	cores *int
	scale *float64
}

// newCommand returns the flag set of subcommand name, with -format when
// formats are given.
func newCommand(name string, stderr io.Writer, formats ...string) *command {
	c := &command{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), formats: formats}
	c.SetOutput(stderr)
	if len(formats) > 0 {
		c.format = c.String("format", formats[0], "output format: "+strings.Join(formats, ", "))
	}
	return c
}

// newWorkload is newCommand plus the flags every workload subcommand
// shares.
func newWorkload(name string, stderr io.Writer, formats ...string) *command {
	c := newCommand(name, stderr, formats...)
	c.app = c.String("app", "mysql", "workload: mysql[-3.23|-4.1|-5.1], apache, firefox, forkjoin")
	c.cores = c.Int("cores", 4, "simulated core count")
	c.scale = c.Float64("scale", 1.0, "workload scale factor")
	return c
}

// parse parses args and reports whether the subcommand goes on; when
// it does not, code is the exit code: 0 after -h, 2 for a usage error.
// Usage errors are a bad flag, a stray argument, an unknown -format,
// and every error checks returns. checks, called once the flags hold
// their values, adds the subcommand's own domains to the shared ones.
func (c *command) parse(args []string, checks func() []error) (code int, ok bool) {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	var errs []error
	if c.NArg() > 0 && !c.positional {
		errs = append(errs, fmt.Errorf("unexpected argument %q", c.Arg(0)))
	}
	if c.format != nil && !slices.Contains(c.formats, *c.format) {
		errs = append(errs, fmt.Errorf("unknown -format %q (%s)", *c.format, strings.Join(c.formats, ", ")))
	}
	if c.app != nil {
		// The machine would otherwise quietly replace a non-positive
		// core count with its default.
		errs = append(errs, flagcheck.AtLeast("cores", *c.cores, 1), flagcheck.Positive("scale", *c.scale))
	}
	if checks != nil {
		errs = append(errs, checks()...)
	}
	if !flagcheck.OK(c.Output(), c.Name(), errs...) {
		c.Usage()
		return 2, false
	}
	return 0, true
}

// exitCode reports err, if any, and returns the exit code: 1 for a
// runtime failure, 0 for none.
func (c *command) exitCode(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(c.Output(), "%s: %v\n", c.Name(), err)
	return 1
}

// lookup builds -app under ins at scale, or reports it unknown with
// the usage and returns nil.
func (c *command) lookup(ins workloads.Instrumentation, scale float64) *workloads.App {
	app := workloads.ByName(*c.app, ins, scale)
	if app == nil {
		fmt.Fprintf(c.Output(), "%s: unknown app %q\n", c.Name(), *c.app)
		c.Usage()
	}
	return app
}

// sim is one finished workload run.
type sim struct {
	app     *workloads.App
	m       *machine.Machine
	threads []*kernel.Thread // the threads Launch created
	res     machine.RunResult
}

// launch runs app on a machine built from cfg. attach, when not nil,
// sees the machine before Launch, since Spawn already emits trace
// events. With more than one tenant the threads are dealt round-robin
// across the guests.
func launch(app *workloads.App, cfg machine.Config, attach func(*machine.Machine)) *sim {
	m := machine.New(cfg)
	if attach != nil {
		attach(m)
	}
	threads := app.Launch(m)
	if n := cfg.Kernel.Tenants; n > 1 {
		for i, t := range threads {
			t.Tenant = i % n
		}
	}
	return &sim{app: app, m: m, threads: threads, res: m.Run(machine.RunLimits{})}
}

// simulate builds -app under ins and launches it on -cores cores of a
// machine built from cfg. A nonzero code is the exit code: 2 for an
// unknown app, 1 for a run that faulted, deadlocked or hit the clock
// ceiling.
func (c *command) simulate(ins workloads.Instrumentation, cfg machine.Config, attach func(*machine.Machine)) (s *sim, code int) {
	app := c.lookup(ins, *c.scale)
	if app == nil {
		return nil, 2
	}
	cfg.NumCores = *c.cores
	s = launch(app, cfg, attach)
	if s.res.Err != nil {
		return nil, c.exitCode(fmt.Errorf("%s: %w", *c.app, s.res.Err))
	}
	return s, 0
}

// methodBlurbs describes each counter access method for list.
var methodBlurbs = map[probe.Kind]string{
	probe.KindNull:   "no instrumentation (baseline)",
	probe.KindRdtsc:  "timestamp-counter deltas, no event selection",
	probe.KindLimit:  "userspace rdpmc + virtualized 64-bit counters (the paper's patch)",
	probe.KindPerf:   "syscall-per-read perf counters, multiplexed past the hardware",
	probe.KindPAPI:   "PAPI-style layered reads over the perf path",
	probe.KindSample: "periodic overflow-interrupt sampling",
}

const methodUsage = "access method: limit, perf, papi, rdtsc, sample, none"

// methodCheck is -method's domain.
func methodCheck(method string) error {
	if _, ok := methodBlurbs[probe.Kind(method)]; !ok {
		return fmt.Errorf("unknown method %q (see limitctl list)", method)
	}
	return nil
}

// instrumentation resolves a -method value that passed methodCheck.
func instrumentation(method string, period uint64) workloads.Instrumentation {
	if probe.Kind(method) == probe.KindLimit {
		return workloads.LimitInstr()
	}
	return workloads.Instrumentation{Kind: probe.Kind(method), SamplePeriod: period}
}

// periodCheck is the sampling period's domain: the kernel refuses a
// period of 0 or one at or above the PMU's write limit, and the
// attribution scales by the period it is given.
func periodCheck(period uint64) error {
	limit := pmu.DefaultFeatures().WriteLimit()
	return flagcheck.Check(period >= 1 && period < limit, "period", fmt.Sprintf("in [1, %d]", limit-1), period)
}

// metricDefs resolves a -metric CSV selection against the built-in
// catalogue, all of it when the selection is empty.
func metricDefs(list string) ([]*metrics.Def, error) {
	var defs []*metrics.Def
	if list == "" {
		for i := range metrics.Builtin {
			defs = append(defs, &metrics.Builtin[i])
		}
		return defs, nil
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		d := metrics.Lookup(name)
		if d == nil {
			var sb strings.Builder
			fmt.Fprintf(&sb, "unknown metric %q; built-ins:", name)
			for i := range metrics.Builtin {
				fmt.Fprintf(&sb, "\n  %-18s %s", metrics.Builtin[i].Name, metrics.Builtin[i].Desc)
			}
			return nil, errors.New(sb.String())
		}
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return nil, errors.New("-metric selected no metrics")
	}
	return defs, nil
}

// splitCheck resolves a -split value.
func splitCheck(name string) (metrics.Split, error) {
	split, ok := metrics.ParseSplit(name)
	if !ok {
		return split, fmt.Errorf("unknown -split %q (none, tenant, thread)", name)
	}
	return split, nil
}

// writeFile creates path and writes it with write. A failed Close
// fails the write too: it can be where a full disk shows.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFile opens path and hands it to read.
func readFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := read(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
