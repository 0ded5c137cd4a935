// Command perfbench is the repository benchmark. It runs one workload
// in a closed loop with one client (iterations back to back in this
// process; only chaos-campaign fans out, across two runner workers)
// and prints its metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-file FILE]
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs an untraced pass and then a traced pass, in which every timed
// public call becomes a span, adds the nanoBench-style layer probes,
// and prints the per-layer metrics plus a self-time table on stderr.
// Every host time is calibration-normalized (see measure.go). See
// README.md for the workloads and the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed with
// --trace 0.
var endToEnd = []metricDef{
	{"iter_ms_p50", "ms"},
	{"iter_ms_p90", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_iter", "MB"},
}

// perLayer are the per-layer metrics, printed with --trace 1. Counts
// are exact and repeat on every iteration; shares (_frac) are self
// time over iteration wall time in the traced pass; probes (_ns) are
// calibration-normalized ns per call. Every workload prints every
// metric, and one the workload does not exercise reads 0.
var perLayer = []metricDef{
	// Self-time shares of the traced iteration, by public call.
	{"mem.restore_frac", "frac"},
	{"machine.new_frac", "frac"},
	{"workloads.launch_frac", "frac"},
	{"machine.run_frac", "frac"},
	{"chaos.jobs_frac", "frac"},
	{"chaos.assemble_frac", "frac"},
	{"chaos.render_frac", "frac"},
	{"runner.idle_frac", "frac"},
	{"metrics.fromkernel_frac", "frac"},
	{"metrics.window_frac", "frac"},
	{"metrics.codec_frac", "frac"},
	{"report.render_frac", "frac"},
	{"bench.self_frac", "frac"},
	// Allocation inside a call, per iteration.
	{"machine.new_alloc_kb", "KB"},
	{"machine.run_alloc_kb", "KB"},
	{"metrics.codec_alloc_kb", "KB"},
	// Simulator throughput and how much of machine.Run the
	// interpreter's per-step costs explain.
	{"machine.sim_mcyc_per_s", "Mcyc/s"},
	{"model.explained_frac", "frac"},
	// Exact simulated counts.
	{"machine.steps", "count"},
	{"machine.sim_cycles", "count"},
	{"cpu.instr_user", "count"},
	{"cpu.instr_kernel", "count"},
	{"cpu.branches", "count"},
	{"cpu.branch_miss_rate", "frac"},
	{"cpu.atomics", "count"},
	{"cache.loads", "count"},
	{"cache.stores", "count"},
	{"cache.l1d_miss_rate", "frac"},
	{"cache.l2_miss_rate", "frac"},
	{"cache.llc_misses", "count"},
	{"tlb.dtlb_miss_rate", "frac"},
	{"tlb.walks", "count"},
	{"kernel.syscalls", "count"},
	{"kernel.ctx_switches", "count"},
	{"kernel.preemptions", "count"},
	{"kernel.migrations", "count"},
	{"kernel.pmis", "count"},
	{"kernel.overflow_folds", "count"},
	{"kernel.mux_rotations", "count"},
	{"kernel.frames", "count"},
	{"mem.pages", "count"},
	{"chaos.reads", "count"},
	{"chaos.rewinds", "count"},
	{"chaos.payload_kb", "KB"},
	{"metrics.windows", "count"},
	{"metrics.jsonl_kb", "KB"},
	{"report.html_kb", "KB"},
	// Layer probes, ns per call.
	{"cpu.step_ns.alu", "ns"},
	{"cpu.step_ns.load", "ns"},
	{"cpu.step_ns.store", "ns"},
	{"cpu.step_ns.branch", "ns"},
	{"cpu.step_ns.atomic", "ns"},
	{"mem.read64_ns", "ns"},
	{"mem.write64_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"pmu.addevent_ns.unwatched", "ns"},
	{"pmu.addevent_ns.watched", "ns"},
	// Host diagnostics.
	{"host.calib_ns_per_op", "ns"},
	{"host.iter_ms_p50_raw", "ms"},
	{"host.first_iter_ms", "ms"},
	{"host.gc_per_iter", "count"},
	{"host.sys_mb", "MB"},
	{"trace.overhead_frac", "frac"},
}

// spanShares maps a span name to the share metric its self time feeds.
var spanShares = map[string]string{
	"iteration":                "bench.self_frac",
	"mem.Restore":              "mem.restore_frac",
	"machine.New":              "machine.new_frac",
	"workloads.App.Launch":     "workloads.launch_frac",
	"machine.Run":              "machine.run_frac",
	"chaos.CampaignSpace.Run":  "chaos.jobs_frac",
	"chaos.AssembleCampaign":   "chaos.assemble_frac",
	"chaos.Result.Render":      "chaos.render_frac",
	"metrics.FromKernel":       "metrics.fromkernel_frac",
	"metrics.Windowed":         "metrics.window_frac",
	"metrics.SeriesSet.Rows":   "metrics.window_frac",
	"metrics.WriteJSONL":       "metrics.codec_frac",
	"metrics.ParseJSONL":       "metrics.codec_frac",
	"metrics.WriteSeriesJSONL": "metrics.codec_frac",
	"metrics.ParseSeriesJSONL": "metrics.codec_frac",
	"report.Artifact.Render":   "report.render_frac",
}

// spanAllocs maps a span name to the allocation metric it feeds.
var spanAllocs = map[string]string{
	"machine.New":              "machine.new_alloc_kb",
	"machine.Run":              "machine.run_alloc_kb",
	"metrics.WriteJSONL":       "metrics.codec_alloc_kb",
	"metrics.ParseJSONL":       "metrics.codec_alloc_kb",
	"metrics.WriteSeriesJSONL": "metrics.codec_alloc_kb",
	"metrics.ParseSeriesJSONL": "metrics.codec_alloc_kb",
}

// simCalls are the spans of one simulation run; their per-iteration
// sum is the operation BenchmarkMachine* times, so sim_mcyc_per_s
// compares with bench/BENCH_machine_baseline.json.
var simCalls = map[string]bool{
	"mem.Restore": true, "machine.New": true, "workloads.App.Launch": true, "machine.Run": true,
}

const (
	// setup_s is the median of at least setupReps samples taken over
	// at least setupTime, each a batch of at least setupBatch.
	setupReps  = 15
	setupTime  = 500 * time.Millisecond
	setupBatch = 2 * time.Millisecond
	// blockIters is the most iterations one calibration reading
	// normalizes.
	blockIters = 10
	// minIters is the fewest iterations a pass runs.
	minIters = 3
	// inputVariants is how many input sets a run builds from --seed and
	// rotates through, one per iteration, so that one seed's quirks
	// weigh less in a run's medians: with a single input per run,
	// allocation per iteration varied by up to 3% between seeds.
	inputVariants = 4
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	traceFile string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit code: 0 when every
// iteration passed its checks, 1 when one failed or the run could not
// complete, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	b := &bench{opts: opts, spec: lookup(opts.workload), log: stderr}
	values, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "perfbench %s seed=%d: %d iteration(s), %d failed\n", opts.workload, opts.seed, b.attempted, b.failed)
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is not finite; reporting 0\n", d.name)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-26s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opts options
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 0, fmt.Sprintf("input seed: input k is built from seed·%d+k, and seed 0 on input 0 keeps the seeds the workloads.Build* functions chose", inputVariants))
	fs.Float64Var(&opts.seconds, "seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	fs.StringVar(&opts.traceFile, "trace-file", "", "with --trace 1, write the traced pass's spans here as a Chrome trace (Perfetto-loadable)")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	opts.seed = uint64(*seed)
	switch {
	case fs.NArg() > 0:
		return opts, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case lookup(opts.workload) == nil:
		return opts, fmt.Errorf("unknown --workload %q (%s)", opts.workload, strings.Join(names, ", "))
	case *traceFlag != 0 && *traceFlag != 1:
		return opts, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	case opts.seconds <= 0:
		return opts, errors.New("--seconds must be positive")
	case opts.traceFile != "" && *traceFlag == 0:
		return opts, errors.New("--trace-file needs --trace 1")
	}
	opts.trace = *traceFlag == 1
	return opts, nil
}

// bench is one benchmark run of one workload.
type bench struct {
	opts options
	spec *spec
	log  io.Writer
	ws   []workload // the run's inputs, inputVariants of them

	attempted, failed int
}

// passResult is one sequence of measured iterations.
type passResult struct {
	ms, rawMs []float64 // per iteration: normalized and raw host ms
	calibs    []float64
	alloc     uint64 // bytes allocated over the pass
	gcs       uint32
}

func (b *bench) run() (map[string]float64, error) {
	setupS, err := b.setup()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", b.spec.name, err)
	}
	// The first iteration on each input pays lazy set-up and cold caches
	// and becomes the reference later iterations on that input are
	// checked against.
	var firstMs float64
	for k, w := range b.ws {
		start := time.Now()
		err := w.iterate(nil)
		if k == 0 {
			firstMs = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		b.record(w, err)
	}

	budget := time.Duration(b.opts.seconds * float64(time.Second))
	if !b.opts.trace {
		p := b.pass(nil, budget)
		b.warnTail(len(p.ms))
		fmt.Fprintf(b.log, "perfbench: %d measured iteration(s), raw p50 %.3f ms, calibration median %.0f ns/op\n",
			len(p.ms), median(p.rawMs), median(p.calibs))
		s := sorted(p.ms)
		return map[string]float64{
			"iter_ms_p50":       percentile(s, 50),
			"iter_ms_p90":       percentile(s, 90),
			"setup_s":           median(setupS),
			"alloc_mb_per_iter": float64(p.alloc) / float64(len(p.ms)) / 1e6,
		}, nil
	}

	// Traced run: an untraced pass, then a traced one of the same
	// length; the difference between their medians is the tracing
	// overhead.
	plain := b.pass(nil, budget/2)
	tr := newTracer()
	traced := b.pass(tr, budget/2)
	probeNs, err := runProbes()
	if err != nil {
		return nil, err
	}

	v := meanOver(b.ws, workload.counts)
	for name, ns := range probeNs {
		v[name] = ns
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	plainP50 := median(plain.ms)
	v["host.calib_ns_per_op"] = median(append(append([]float64(nil), plain.calibs...), traced.calibs...))
	v["host.iter_ms_p50_raw"] = median(plain.rawMs)
	v["host.first_iter_ms"] = firstMs
	v["host.gc_per_iter"] = float64(plain.gcs) / float64(len(plain.ms))
	v["host.sys_mb"] = float64(ms.Sys) / 1e6
	v["trace.overhead_frac"] = median(traced.ms)/plainP50 - 1
	b.spanMetrics(tr.spans, probeNs, v)
	if b.opts.traceFile != "" {
		if err := writeTrace(b.opts.traceFile, tr.spans); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}
	return v, nil
}

// setup builds the run's inputs from the seed repeatedly, input k from
// seed·inputVariants+k (so --seed 0 keeps the Build* functions' own
// seeds on its first input), keeping the last build of each. It
// returns normalized seconds per input set-up, one sample per batch.
// Batches double until one takes setupBatch, because a simulated app
// builds in tens of microseconds, too short to time alone; the first
// samples of a growing batch are discarded.
func (b *bench) setup() ([]float64, error) {
	clock := calibClock{perBlock: blockIters}
	b.ws = make([]workload, inputVariants)
	var times []float64
	batch, built := 1, 0
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupTime {
		calib := clock.next()
		t := time.Now()
		for i := 0; i < batch; i++ {
			k := built % inputVariants
			w, err := b.spec.setup(b.opts.seed*inputVariants + uint64(k))
			if err != nil {
				return nil, err
			}
			b.ws[k] = w
			built++
		}
		d := time.Since(t)
		if d < setupBatch {
			batch *= 2
			continue
		}
		times = append(times, normalize(d.Seconds()/float64(batch), calib))
	}
	return times, nil
}

// pass runs iterations until budget is spent, and at least minIters,
// in calibrated blocks, rotating through the inputs. With a tracer each
// iteration is a root span.
func (b *bench) pass(tr *tracer, budget time.Duration) passResult {
	var p passResult
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	clock := calibClock{perBlock: blockIters}
	start := time.Now()
	for {
		if len(p.ms) >= minIters && time.Since(start) >= budget {
			break
		}
		w := b.ws[b.attempted%len(b.ws)]
		calib := clock.next()
		root := tr.begin("iteration")
		t := time.Now()
		err := w.iterate(tr)
		d := float64(time.Since(t).Nanoseconds()) / 1e6
		tr.end(root)
		tr.setCalib(root, calib)
		b.record(w, err)
		p.rawMs = append(p.rawMs, d)
		p.ms = append(p.ms, normalize(d, calib))
	}
	runtime.ReadMemStats(&after)
	p.calibs = clock.readings
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC
	return p
}

// record counts one attempted iteration on input w and whether it
// failed: its operation returned an error or its outputs failed the
// checks.
func (b *bench) record(w workload, err error) {
	b.attempted++
	if err == nil {
		err = w.check()
	}
	if err != nil {
		b.failed++
		if b.failed <= 3 {
			fmt.Fprintf(b.log, "perfbench: %s iteration %d failed: %v\n", b.spec.name, b.attempted, err)
		}
	}
}

// warnTail notes a p90 with fewer than ten samples beyond it.
func (b *bench) warnTail(n int) {
	if k := tailCount(n, 90); k < 10 {
		fmt.Fprintf(b.log, "perfbench: iter_ms_p90 has only %d of %d samples beyond it; lengthen the run\n", k, n)
	}
}

// spanMetrics derives the traced pass's metrics from its spans: the
// self-time shares, per-call allocations, runner idle share, simulator
// throughput and the probe model's explained share. It also prints the
// self-time table on the log.
func (b *bench) spanMetrics(spans []span, probeNs map[string]float64, v map[string]float64) {
	self := selfTimes(spans)
	root := roots(spans)
	var wall float64
	iters := 0
	simNs := map[int]float64{} // per root: normalized ns in simulation calls
	runNs := map[int]float64{} // per root: normalized machine.Run self ns
	type row struct {
		calls      int
		selfNs     float64
		normSelfNs float64
	}
	rows := map[string]*row{}
	var order []string
	allocB := map[string]float64{}
	var busy, capacity float64 // runner worker time: used, available
	for i, s := range spans {
		scale := normalize(1, spans[root[i]].calib)
		if s.parent < 0 {
			wall += float64(s.end - s.start)
			iters++
		}
		r := rows[s.name]
		if r == nil {
			r = &row{}
			rows[s.name] = r
			order = append(order, s.name)
		}
		r.calls++
		r.selfNs += float64(self[i])
		r.normSelfNs += float64(self[i]) * scale
		if m, ok := spanAllocs[s.name]; ok && s.alloc >= 0 {
			allocB[m] += float64(s.alloc)
		}
		if simCalls[s.name] {
			simNs[root[i]] += float64(s.end-s.start) * scale
		}
		if s.name == "machine.Run" {
			runNs[root[i]] += float64(self[i]) * scale
		}
		if s.name == "runner.Run" {
			capacity += campaignWidth * float64(s.end-s.start)
		}
		if s.parent >= 0 && spans[s.parent].name == "runner.Run" {
			busy += float64(s.end - s.start)
		}
	}
	if iters == 0 || wall == 0 {
		return
	}
	for _, name := range order {
		if m, ok := spanShares[name]; ok {
			v[m] += rows[name].selfNs / wall
		}
	}
	for m, bytes := range allocB {
		v[m] = bytes / 1024 / float64(iters)
	}
	if capacity > 0 {
		v["runner.idle_frac"] = (capacity - busy) / capacity
	}
	if len(simNs) > 0 {
		v["machine.sim_mcyc_per_s"] = v["machine.sim_cycles"] * 1e3 / median(values(simNs))
	}
	if _, ok := b.ws[0].(mixer); ok && len(runNs) > 0 {
		mix := meanOver(b.ws, func(w workload) map[string]float64 { return w.(mixer).interpreterMix() })
		var predicted float64
		for class, n := range mix {
			predicted += n * probeNs["cpu.step_ns."+class]
		}
		v["model.explained_frac"] = predicted / median(values(runNs))
	}

	fmt.Fprintf(b.log, "perfbench: traced pass, %d iteration(s); self time per iteration (calibration-normalized)\n", iters)
	fmt.Fprintf(b.log, "  %-26s %10s %14s %8s\n", "span", "calls/iter", "self ms/iter", "share")
	for _, name := range order {
		r := rows[name]
		fmt.Fprintf(b.log, "  %-26s %10.2f %14.4f %7.2f%%\n", name,
			float64(r.calls)/float64(iters), r.normSelfNs/1e6/float64(iters), 100*r.selfNs/wall)
	}
	fmt.Fprintf(b.log, "  trace.overhead_frac %.4f, model.explained_frac %.4f\n", v["trace.overhead_frac"], v["model.explained_frac"])
}

// mixer is a workload whose user-ring step mix the layer probes price.
type mixer interface{ interpreterMix() map[string]float64 }

// meanOver averages f over the run's inputs, key by key.
func meanOver(ws []workload, f func(workload) map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, w := range ws {
		for k, x := range f(w) {
			out[k] += x / float64(len(ws))
		}
	}
	return out
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, x := range m {
		out = append(out, x)
	}
	return out
}
