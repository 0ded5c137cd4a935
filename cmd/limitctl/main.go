// Command limitctl is the repository's workload tool: it runs one
// workload model under a chosen counter access method and dumps what
// was measured — the equivalent of running the paper's instrumented
// binaries by hand — and assembles measurement files into reports.
//
// Usage:
//
//	limitctl [run] -app mysql|mysql-3.23|mysql-4.1|mysql-5.1|apache|firefox|forkjoin
//	         [-method limit|perf|papi|rdtsc|sample|none]
//	         [-cores 4] [-scale 1.0] [-hist] [-threads] [-period N]
//	limitctl list
//	limitctl trace [-app ...] [-format text|chrome|jsonl] [-n 65536]
//	limitctl stats [-app ...] [-format text|jsonl]
//	limitctl merge [-format text|jsonl] <file.jsonl> <file.jsonl> [...]
//	limitctl metrics [-app ...] [-rotation N] [-width N] [-metric cpi,ipc,...]
//	         [-tenants N] [-window N [-split none|tenant|thread]]
//	         [-format text|frames|jsonl]
//	limitctl report [-o out.html] [-profile f.jsonl] [-series f.jsonl]
//	         [-frames f.jsonl -window N] [-telemetry a.jsonl,b.jsonl] [-flame f.json]
//	limitctl profile [-app ...] [-events cycles,cycles:k,l1d-miss,branch-miss]
//	         [-stride N | -budget 1.05] [-top 10] [-format text|markdown|jsonl]
//	         [-flame FILE] [-html FILE] [-hist] [-metrics] [-parallel N]
//
// Run mode, the default when the first argument is a flag, prints
// scheduler statistics, the per-thread synchronization profile, the
// cycle decomposition and (with -hist) the critical-section histogram.
// Bare "limitctl" and -h print the help with the subcommand index and
// exit 0; -h on a subcommand prints its flags and exits 0. list prints
// the available event/counter configurations — PMU events, counter
// access methods, hardware feature presets and derived metrics. trace
// runs a workload with the kernel tracer attached and emits the event
// stream as text, Chrome trace-event JSON (Perfetto-loadable), or
// JSONL. stats runs a workload with the telemetry layer attached and
// emits the kernel/pmu/limit self-metrics. merge folds telemetry JSONL
// files (from stats -format jsonl, or shipped by fleet workers) into
// one registry with the campaign engines' commutative merge; schema
// drift between files exits 1 naming the metric. metrics runs a
// workload with the full derived-metric event set opened as
// multiplexed groups and reports derived metrics over the scaled
// estimates — the raw per-rotation frame stream as JSONL with -format
// frames (tenant-stamped when -tenants is active), or a windowed time
// series with -window N. report assembles one self-contained HTML
// artifact from measurement files on disk (profiler findings, windowed
// series, telemetry registries, flame spans) without running a
// simulation. profile runs a workload with the region-attribution
// profiler attached and ranks its regions by attributed self-cost, the
// paper's title use case as a tool.
//
// Exit codes: 0 on success, 1 when a run fails (a fault, a deadlock or
// the clock ceiling) or a file cannot be read or written, and 2 with
// usage for an unknown subcommand, flag, -format, -method, -app or
// -metric, a numeric flag outside its domain, merge with no input
// files, and report with no inputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"limitsim/internal/analysis"
	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/tabwrite"
)

// subcommand is one registry entry; the dispatcher and the help text
// share the registry, so a subcommand added here is named by -h.
type subcommand struct {
	Name  string
	Blurb string
	Run   func(args []string, stdout, stderr io.Writer) int
}

// subcommands returns the registry. It is a function, not a variable,
// because run mode's help prints it.
func subcommands() []subcommand {
	return []subcommand{
		{"run", "run a workload and dump scheduler/sync measurements (the default; takes the flags below)", runRun},
		{"list", "print available events, access methods, PMU presets and derived metrics", runList},
		{"trace", "run with the kernel tracer attached; -format text|chrome|jsonl", runTrace},
		{"stats", "run with the telemetry layer attached; -format text|jsonl", runStats},
		{"merge", "fold telemetry JSONL files into one registry; drift between files is an error", runMerge},
		{"metrics", "run with multiplexed event groups and report derived metrics; -window N for time series; -format text|frames|jsonl", runMetrics},
		{"report", "assemble a self-contained HTML artifact from measurement files on disk", runReport},
		{"profile", "run with the region-attribution profiler and rank the bottlenecks; -format text|markdown|jsonl", runProfile},
	}
}

// usage writes the subcommand index plus the flag help of fs.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: limitctl [subcommand] [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "subcommands:")
	for _, sc := range subcommands() {
		fmt.Fprintf(w, "  %-8s %s\n", sc.Name, sc.Blurb)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "flags:")
	fs.SetOutput(w)
	fs.PrintDefaults()
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		// Bare "limitctl" prints the help to stdout and exits 0;
		// running a workload is an explicit choice.
		os.Exit(runRun([]string{"-h"}, os.Stdout, os.Stdout))
	}
	name := "run"
	if !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	for _, sc := range subcommands() {
		if sc.Name == name {
			os.Exit(sc.Run(args, os.Stdout, os.Stderr))
		}
	}
	fmt.Fprintf(os.Stderr, "limitctl: unknown subcommand %q\n", name)
	runRun([]string{"-h"}, os.Stdout, os.Stderr)
	os.Exit(2)
}

// runList prints the available events, access methods, PMU feature
// presets and derived metrics.
func runList(args []string, stdout, stderr io.Writer) int {
	if code, ok := newCommand("limitctl list", stderr).parse(args, nil); !ok {
		return code
	}
	et := tabwrite.New("PMU events", "id", "event")
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		et.Row(int(ev), ev)
	}
	et.Render(stdout)

	mt := tabwrite.New("Counter access methods (-method)", "method", "description")
	for _, k := range probe.AllKinds() {
		mt.Row(string(k), methodBlurbs[k])
	}
	mt.Render(stdout)

	ft := tabwrite.New("PMU feature presets", "preset", "counters", "width", "write", "notes")
	for _, p := range []struct {
		name  string
		f     pmu.Features
		notes string
	}{
		{"stock", pmu.DefaultFeatures(), "2011-era x86 baseline"},
		{"e1-64bit", pmu.Enhanced64Bit(), "fully writable 64-bit counters"},
		{"e2-destructive", pmu.EnhancedDestructive(), "read-and-reset rdpmc"},
		{"e3-hw-virt", pmu.EnhancedHWVirtualization(), "per-thread counter state in hardware"},
	} {
		ft.Row(p.name, p.f.NumCounters, p.f.CounterWidth, p.f.WriteWidth, p.notes)
	}
	ft.Render(stdout)

	dt := tabwrite.New("Derived metrics (limitctl metrics -metric)", "metric", "definition", "description")
	for i := range metrics.Builtin {
		d := &metrics.Builtin[i]
		dt.Row(d.Name, d.Expr, d.Desc)
	}
	dt.Render(stdout)
	return 0
}

// runRun runs one workload under a counter access method and prints
// the kernel statistics, then the sampled attribution or the
// synchronization profile, per-thread rows and the critical-section
// histogram.
func runRun(args []string, stdout, stderr io.Writer) int {
	c := newWorkload("limitctl", stderr)
	method := c.String("method", "limit", methodUsage)
	hist := c.Bool("hist", false, "print critical-section histogram")
	perThread := c.Bool("threads", false, "print per-thread rows")
	period := c.Uint64("period", 100_000, "sampling period (method=sample)")
	c.Usage = func() { usage(stderr, c.FlagSet) }
	if code, ok := c.parse(args, func() []error {
		return []error{periodCheck(*period), methodCheck(*method)}
	}); !ok {
		return code
	}

	ins := instrumentation(*method, *period)
	s, code := c.simulate(ins, machine.Config{}, nil)
	if code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "%s on %d cores, method=%s: %s\n\n", s.app.Name, *c.cores, *method, s.res)

	kt := tabwrite.New("Kernel statistics", "metric", "value")
	st := s.m.Kern.Stats
	kt.Row("context switches", st.CtxSwitches)
	kt.Row("preemptions", st.Preemptions)
	kt.Row("migrations", st.Migrations)
	kt.Row("work steals", st.Steals)
	kt.Row("syscalls", st.Syscalls)
	kt.Row("PMIs", st.PMIs)
	kt.Row("overflow folds", st.OverflowFolds)
	kt.Row("signals sent", st.SignalsSent)
	kt.Row("samples captured", len(s.m.Kern.Samples()))
	kt.Render(stdout)

	if ins.Kind == probe.KindSample {
		acq, cs, n := analysis.SampledShares(s.m.Kern.Samples(), s.app, *period)
		fmt.Fprintf(stdout, "sampled attribution (%d samples): acquire %.1f%%, critical-section %.1f%%\n",
			n, acq*100, cs*100)
		return 0
	}
	if !ins.Active() {
		return 0
	}

	p := analysis.CollectSync(s.app)
	d := p.Decompose()
	dt := tabwrite.New("Synchronization profile", "metric", "value")
	dt.Row("lock operations", p.OpsTotal())
	dt.Row("mean acquire (cycles)", p.Acq.Mean())
	dt.Row("median CS (cycles)", p.CS.Median())
	dt.Row("p99 CS (cycles)", p.CS.Percentile(99))
	dt.Row("acquire share", fmt.Sprintf("%.1f%%", d.AcquireShare*100))
	dt.Row("CS share", fmt.Sprintf("%.1f%%", d.CSShare*100))
	dt.Row("kernel share", fmt.Sprintf("%.1f%%", d.KernelShare*100))
	dt.Render(stdout)

	if *perThread {
		tt := tabwrite.New("Per-thread", "thread", "ops", "acq cycles", "cs cycles", "total", "fixups", "switches")
		for i, ts := range p.Threads {
			tt.Row(ts.Name, ts.Ops, ts.AcqCycles, ts.CSCycles, ts.TotalCycles,
				s.threads[i].Stats.FixupRewinds, s.threads[i].Stats.CtxSwitches)
		}
		tt.Render(stdout)
	}

	if *hist {
		ht := tabwrite.New("Critical-section length histogram (cycles)", "bucket", "count", "share", "")
		for _, row := range p.CSHist.Rows() {
			ht.Row(row.Label, row.Count, row.Share, tabwrite.Bar(row.Share, 40))
		}
		ht.Render(stdout)
	}
	return 0
}
