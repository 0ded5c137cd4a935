// Command limitctl runs one workload model under a chosen counter
// access method and dumps its measurements: scheduler statistics,
// per-thread synchronization profile, cycle decomposition, and (with
// -hist) the critical-section histogram. It is the repository's
// general inspection tool — the equivalent of running the paper's
// instrumented binaries by hand.
//
// Usage:
//
//	limitctl [run] -app mysql|mysql-3.23|mysql-4.1|mysql-5.1|apache|firefox
//	         [-method limit|perf|papi|rdtsc|sample|none]
//	         [-cores 4] [-scale 1.0] [-hist] [-threads]
//	limitctl list   (or -list)
//	limitctl trace [-app ...] [-format text|chrome|jsonl] [-n 4096]
//	limitctl stats [-app ...] [-format text|jsonl]
//	limitctl merge [-format text|jsonl] <file.jsonl> <file.jsonl> [...]
//	limitctl metrics [-app ...] [-rotation N] [-width N] [-metric cpi,ipc,...]
//	         [-tenants N] [-series -window N [-split none|tenant|thread]]
//	         [-format text|frames|jsonl]
//	limitctl report [-o out.html] [-profile f.jsonl] [-series f.jsonl]
//	         [-frames f.jsonl -window N] [-telemetry a.jsonl,b.jsonl] [-flame f.json]
//
// Bare "limitctl" (or -h) prints the help with the subcommand index
// and exits 0. -list/list prints the available event/counter
// configurations — PMU events, counter access methods, and hardware
// feature presets — and exits. The trace subcommand runs a workload
// with the kernel tracer attached and emits the event stream as text,
// Chrome trace-event JSON (Perfetto-loadable), or JSONL. The stats
// subcommand runs a workload with the telemetry layer attached and
// emits the kernel/pmu/limit self-metrics. The merge subcommand folds
// telemetry JSONL files (from stats -format jsonl, or shipped by fleet
// workers) into one registry with the campaign engines' commutative
// merge; schema drift between files exits 1 naming the metric. The
// metrics subcommand runs a workload with the full derived-metric
// event set opened as multiplexed groups and reports derived metrics
// over the scaled estimates — the raw per-rotation frame stream as
// JSONL with -format frames (tenant-stamped when -tenants is active),
// or a windowed time series with -series -window N. The report
// subcommand assembles one self-contained HTML artifact from
// measurement files on disk (profiler findings, windowed series,
// telemetry registries, flame spans) without running a simulation.
// Unknown subcommands, unknown -format values, unknown -metric names,
// a numeric flag outside its domain (a non-positive -window or -scale,
// -cores below 1, a -period the kernel would refuse, a metrics -width
// whose groups cannot fit the counters LiMiT leaves free), merge with
// no input files, and report with no inputs exit 2 with usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"limitsim/internal/analysis"
	"limitsim/internal/flagcheck"
	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/pmu"
	"limitsim/internal/probe"
	"limitsim/internal/tabwrite"
	"limitsim/internal/trace"
	"limitsim/internal/workloads"
)

// methodBlurbs describes each counter access method for -list.
var methodBlurbs = map[probe.Kind]string{
	probe.KindNull:   "no instrumentation (baseline)",
	probe.KindRdtsc:  "timestamp-counter deltas, no event selection",
	probe.KindLimit:  "userspace rdpmc + virtualized 64-bit counters (the paper's patch)",
	probe.KindPerf:   "syscall-per-read perf counters, multiplexed past the hardware",
	probe.KindPAPI:   "PAPI-style layered reads over the perf path",
	probe.KindSample: "periodic overflow-interrupt sampling",
}

// buildInstrumentation resolves a -method value, or nil for unknown.
func buildInstrumentation(method string, period uint64) (workloads.Instrumentation, bool) {
	ins := workloads.Instrumentation{Kind: probe.Kind(method), SamplePeriod: period}
	if _, ok := methodBlurbs[ins.Kind]; !ok {
		return ins, false
	}
	if ins.Kind == probe.KindLimit {
		ins = workloads.LimitInstr()
	}
	return ins, true
}

// listConfigurations prints the available events, access methods and
// PMU feature presets.
func listConfigurations(w *os.File) {
	et := tabwrite.New("PMU events", "id", "event")
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		et.Row(int(ev), ev)
	}
	et.Render(w)

	mt := tabwrite.New("Counter access methods (-method)", "method", "description")
	for _, k := range probe.AllKinds() {
		mt.Row(string(k), methodBlurbs[k])
	}
	mt.Render(w)

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
	ft.Render(w)

	dt := tabwrite.New("Derived metrics (limitctl metrics -metric)", "metric", "definition", "description")
	for i := range metrics.Builtin {
		d := &metrics.Builtin[i]
		dt.Row(d.Name, d.Expr, d.Desc)
	}
	dt.Render(w)
}

// subcommands is the registry the dispatcher and the help text share;
// a subcommand added here is automatically named by -h.
var subcommands = []struct {
	Name  string
	Blurb string
	Run   func(args []string, stdout, stderr io.Writer) int
}{
	{"run", "run a workload and dump scheduler/sync measurements (the default; takes the flags below)", nil},
	{"list", "print available events, access methods and PMU presets (alias of -list)", nil},
	{"trace", "run with the kernel tracer attached; -format text|chrome|jsonl", runTrace},
	{"stats", "run with the telemetry layer attached; -format text|jsonl", runStats},
	{"merge", "fold telemetry JSONL files into one registry; drift between files is an error", runMerge},
	{"metrics", "run with multiplexed event groups and report derived metrics; -series -window N for time series; -format text|frames|jsonl", runMetrics},
	{"report", "assemble a self-contained HTML artifact from measurement files on disk", runReport},
}

// workloadChecks are the domains of the flags every workload-running
// mode shares: the machine would otherwise quietly replace a
// non-positive core count with its default.
func workloadChecks(cores int, scale float64) []error {
	return []error{flagcheck.AtLeast("cores", cores, 1), flagcheck.Positive("scale", scale)}
}

// periodCheck is the sampling period's domain: the kernel refuses a
// period of 0 or one at or above the PMU's write limit, and the
// attribution scales by the period it is given.
func periodCheck(period uint64) error {
	limit := pmu.DefaultFeatures().WriteLimit()
	return flagcheck.Check(period >= 1 && period < limit, "period", fmt.Sprintf("in [1, %d]", limit-1), period)
}

// usage writes the flag help plus the subcommand index.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: limitctl [subcommand] [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "subcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-8s %s\n", sc.Name, sc.Blurb)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "flags:")
	fs.SetOutput(w)
	fs.PrintDefaults()
}

func main() {
	appName := flag.String("app", "mysql", "workload: mysql[-3.23|-4.1|-5.1], apache, firefox, forkjoin")
	method := flag.String("method", "limit", "access method: limit, perf, papi, rdtsc, sample, none")
	cores := flag.Int("cores", 4, "simulated core count")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	hist := flag.Bool("hist", false, "print critical-section histogram")
	perThread := flag.Bool("threads", false, "print per-thread rows")
	period := flag.Uint64("period", 100_000, "sampling period (method=sample)")
	traceN := flag.Int("trace", 0, "dump the last N kernel trace events")
	list := flag.Bool("list", false, "list available events, access methods and PMU presets, then exit")
	flag.Usage = func() { usage(os.Stderr, flag.CommandLine) }

	// Bare "limitctl" prints the help (with the subcommand index) and
	// exits 0; running a workload is an explicit choice.
	if len(os.Args) == 1 {
		usage(os.Stdout, flag.CommandLine)
		return
	}

	// Subcommands dispatch before flag parsing; a leading non-flag
	// argument that names no subcommand exits 2 with usage, matching
	// the unknown-method convention.
	if len(os.Args[1]) > 0 && os.Args[1][0] != '-' {
		name := os.Args[1]
		rest := os.Args[2:]
		switch name {
		case "run":
			os.Args = append(os.Args[:1], rest...)
		case "list":
			listConfigurations(os.Stdout)
			return
		default:
			for _, sc := range subcommands {
				if sc.Name == name && sc.Run != nil {
					os.Exit(sc.Run(rest, os.Stdout, os.Stderr))
				}
			}
			fmt.Fprintf(os.Stderr, "limitctl: unknown subcommand %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "limitctl: unknown subcommand %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		listConfigurations(os.Stdout)
		return
	}
	if !flagcheck.OK(os.Stderr, "limitctl", append(workloadChecks(*cores, *scale),
		periodCheck(*period), flagcheck.AtLeast("trace", *traceN, 0))...) {
		os.Exit(2)
	}

	ins, ok := buildInstrumentation(*method, *period)
	if !ok {
		fmt.Fprintf(os.Stderr, "limitctl: unknown method %q (see -list)\n", *method)
		os.Exit(2)
	}

	app := workloads.ByName(*appName, ins, *scale)
	if app == nil {
		fmt.Fprintf(os.Stderr, "limitctl: unknown app %q\n", *appName)
		os.Exit(2)
	}

	m := machine.New(machine.Config{NumCores: *cores})
	var traceBuf *trace.Buffer
	if *traceN > 0 {
		traceBuf = trace.NewBuffer(*traceN)
		m.Kern.SetTracer(traceBuf)
	}
	threads := app.Launch(m)
	res := m.Run(machine.RunLimits{})
	if len(res.Faults) > 0 {
		fmt.Fprintf(os.Stderr, "limitctl: faults: %v\n", res.Faults)
		os.Exit(1)
	}

	fmt.Printf("%s on %d cores, method=%s: %s\n\n", app.Name, *cores, *method, res)

	kt := tabwrite.New("Kernel statistics", "metric", "value")
	st := m.Kern.Stats
	kt.Row("context switches", st.CtxSwitches)
	kt.Row("preemptions", st.Preemptions)
	kt.Row("migrations", st.Migrations)
	kt.Row("work steals", st.Steals)
	kt.Row("syscalls", st.Syscalls)
	kt.Row("PMIs", st.PMIs)
	kt.Row("overflow folds", st.OverflowFolds)
	kt.Row("signals sent", st.SignalsSent)
	kt.Row("samples captured", len(m.Kern.Samples()))
	kt.Render(os.Stdout)

	if !ins.Active() && ins.Kind != probe.KindSample {
		return
	}

	if ins.Kind == probe.KindSample {
		acq, cs, n := analysis.SampledShares(m.Kern.Samples(), app, *period)
		fmt.Printf("sampled attribution (%d samples): acquire %.1f%%, critical-section %.1f%%\n",
			n, acq*100, cs*100)
		return
	}

	p := analysis.CollectSync(app)
	d := p.Decompose()
	dt := tabwrite.New("Synchronization profile", "metric", "value")
	dt.Row("lock operations", p.OpsTotal())
	dt.Row("mean acquire (cycles)", p.Acq.Mean())
	dt.Row("median CS (cycles)", p.CS.Median())
	dt.Row("p99 CS (cycles)", p.CS.Percentile(99))
	dt.Row("acquire share", fmt.Sprintf("%.1f%%", d.AcquireShare*100))
	dt.Row("CS share", fmt.Sprintf("%.1f%%", d.CSShare*100))
	dt.Row("kernel share", fmt.Sprintf("%.1f%%", d.KernelShare*100))
	dt.Render(os.Stdout)

	if *perThread {
		tt := tabwrite.New("Per-thread", "thread", "ops", "acq cycles", "cs cycles", "total", "fixups", "switches")
		for i, ts := range p.Threads {
			tt.Row(ts.Name, ts.Ops, ts.AcqCycles, ts.CSCycles, ts.TotalCycles,
				threads[i].Stats.FixupRewinds, threads[i].Stats.CtxSwitches)
		}
		tt.Render(os.Stdout)
	}

	if *hist {
		ht := tabwrite.New("Critical-section length histogram (cycles)", "bucket", "count", "share", "")
		for _, row := range p.CSHist.Rows() {
			ht.Row(row.Label, row.Count, row.Share, tabwrite.Bar(row.Share, 40))
		}
		ht.Render(os.Stdout)
	}

	if traceBuf != nil {
		fmt.Printf("Kernel trace (last %d of %d events)\n", *traceN, traceBuf.Total())
		traceBuf.Dump(os.Stdout, *traceN)
	}
}
