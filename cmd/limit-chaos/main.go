// Command limit-chaos runs seeded fault-injection campaigns against
// the LiMiT read path: N seeds × a fault-mix matrix (forced preemption
// inside read-critical regions, spurious/delayed/coalesced overflow
// interrupts, migration storms, signal delays, TLB+cache flush storms)
// on a PMU with narrowed writable counters, with the invariant checker
// attached to every run.
//
// Usage:
//
//	limit-chaos [-seeds 32] [-threads 6] [-cores 4] [-iters 400]
//	            [-k 25] [-width 12] [-tenants N] [-mix NAME]
//	            [-nofixup] [-metrics] [-parallel N] [-workers N]
//	            [-report FILE]
//	limit-chaos -soak [-seeds 8] [-pool 4] [-waves 6] [-iters 40]
//	            [-k 20] [-cores 4] [-width 10] [-capacity N]
//	            [-tenants N] [-mix NAME] [-nofixup] [-ablate-reclaim]
//	            [-metrics] [-parallel N] [-workers N] [-report FILE]
//	limit-chaos FLAGS -worker  (internal: serve jobs as a fleet worker)
//
// The flag defaults are chaos.Config's and chaos.SoakConfig's
// (WithDefaults). A flag the soak shares with the read-path campaign
// takes the soak's default when it is left unset. A numeric flag
// outside its domain exits 2 before anything runs.
//
// -tenants N (N > 1) activates the kernel's guest-scheduler layer: the
// workload's threads are dealt across N tenant VMs that time-share the
// cores under a second scheduling level, the fault matrix switches to
// the vCPU-preemption mixes, and the per-tenant attribution oracles
// (conservation, no cross-tenant leakage, uncore share bounds against
// the socket's summed per-core count) run after every run. The report
// gains a tenant-layer table quantifying double context switches and
// the share-by-cycles attribution error.
//
// -mix NAME restricts the campaign to the single named fault mix; an
// unknown name prints the available mixes and exits 2.
//
// Each (mix, seed) run is one job of a fleet job space
// (internal/fleet). -workers 0, the default, runs the jobs in-process
// across -parallel workers (0 uses GOMAXPROCS; 1 selects the serial
// engine). -workers N instead spawns N copies of this binary with its
// own flags plus -worker. A worker validates the same flags and builds
// the same job space from them, then serves jobs over stdin/stdout
// instead of reporting; the coordinator checks each worker's job count
// in the handshake. It speaks length-prefixed JSON frames with each
// worker and supervises them: each job runs on one worker at a time,
// silence past -hb-timeout (at least two heartbeat periods) kills a
// worker that has not sent its ready frame or stops heartbeating
// mid-job, failed jobs retry with seeded backoff, and a job that
// exhausts its attempts is quarantined. The supervision summary goes to
// stderr. Outcomes merge in (mix, seed) key order, so the report is
// byte-identical at every -parallel and -workers width.
//
// -chaos-workers turns the fleet's own fault injection on: workers
// deterministically SIGKILL themselves mid-job, stall with heartbeats
// suppressed, and truncate result frames, all confined to early
// attempts so the retry budget still completes every job. Each worker
// reads -chaos-workers, -fleet-seed and -hb-timeout from its own flags;
// the fates are a pure function of (-fleet-seed, job, attempt), and a
// stall lasts twice -hb-timeout, so it is always killed as hung. The
// report must come out byte-identical anyway.
//
// -metrics attaches the kernel telemetry layer to every run and
// appends the campaign-wide merged metrics block (context-switch and
// PMI-latency histograms, rewind/fold/denial counters) to the report;
// like the rest of the report it is byte-deterministic for a given
// configuration.
//
// -report FILE writes the report to FILE instead of stdout. A FILE
// ending in .html gets the self-contained HTML artifact instead: the
// report plus the merged telemetry, byte-identical at every width
// because supervision stats stay out of it.
//
// With the fixup patch active (the default) a campaign must finish
// with zero invariant violations — that is the paper's atomicity claim
// under adversarial schedules, and the process exits nonzero if it
// breaks. With -nofixup the same campaign must *detect* torn reads:
// the process exits nonzero if the sabotaged configuration somehow
// reports none (a dead checker is as bad as a torn read). A
// quarantined job or a fleet audit violation also exits 1.
//
// -soak switches to the lifecycle soak campaign: a churning
// thread-pool workload (a manager cloning and joining waves of
// short-lived workers) under kill storms, clone storms and pinned-slot
// exhaustion, audited for leak-freedom, inheritance conservation and
// exact-or-flagged measurements. -ablate-reclaim disables exit-time
// resource reclamation and, symmetrically with -nofixup, the process
// exits nonzero unless the campaign *detects* the resulting leaks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"limitsim/internal/chaos"
	"limitsim/internal/flagcheck"
	"limitsim/internal/fleet"
	"limitsim/internal/pmu"
	"limitsim/internal/report"
	"limitsim/internal/telemetry"
)

// outcome is an assembled campaign or soak, ready to report.
type outcome struct {
	render    func(io.Writer)
	telemetry *telemetry.Registry
	verdict   error
	line      string // printed on stdout once the verdict passes
}

// assembler folds a job space's keyed payloads into its outcome.
type assembler func(payloads [][]byte) (outcome, error)

// minHBTimeout is the shortest -hb-timeout: a healthy busy worker
// heartbeats every fleet.HeartbeatPeriod, so a shorter silence would
// kill it as hung.
const minHBTimeout = 2 * fleet.HeartbeatPeriod

func main() {
	camp := chaos.Config{}.WithDefaults()
	soakDef := chaos.SoakConfig{}.WithDefaults()
	maxWidth := pmu.DefaultFeatures().CounterWidth

	soak := flag.Bool("soak", false, "run the thread-lifecycle soak campaign instead of the read-path campaign")
	seeds := flag.Int("seeds", camp.Seeds, fmt.Sprintf("seeds per fault mix (soak default %d)", soakDef.Seeds))
	threads := flag.Int("threads", camp.Threads, "workload threads (read-path campaign)")
	cores := flag.Int("cores", camp.Cores, fmt.Sprintf("machine cores (soak default %d)", soakDef.Cores))
	iters := flag.Int("iters", camp.Iters, fmt.Sprintf("reads per thread (soak default %d per worker)", soakDef.Iters))
	k := flag.Int("k", camp.ComputeK, fmt.Sprintf("compute instructions per measured region (soak default %d)", soakDef.ComputeK))
	width := flag.Int("width", camp.WriteWidth, fmt.Sprintf("PMU writable counter width in bits, %d to %d; narrow = frequent folds (soak default %d)",
		chaos.MinWriteWidth, maxWidth, soakDef.WriteWidth))
	pool := flag.Int("pool", soakDef.Pool, "soak worker-pool width")
	waves := flag.Int("waves", soakDef.Waves, "soak clone/join waves per run")
	capacity := flag.Int("capacity", 0, "soak pinned-slot ledger capacity (0 = 2*tenants*(pool+1)+4)")
	tenants := flag.Int("tenants", 0, "guest-VM count; >1 time-shares the cores between tenant VMs under the two-level scheduler")
	mixName := flag.String("mix", "", "run only the named fault mix (an unknown name lists the available mixes and exits 2)")
	nofixup := flag.Bool("nofixup", false, "disable fixup-region registration (ablation: torn reads expected)")
	ablateReclaim := flag.Bool("ablate-reclaim", false, "disable exit-time resource reclamation (soak ablation: leaks expected)")
	metrics := flag.Bool("metrics", false, "attach kernel telemetry to every run and append the merged metrics block")
	parallel := flag.Int("parallel", 0, "in-process worker count runs fan out across (0 = GOMAXPROCS, 1 = serial)")
	workers := flag.Int("workers", 0, "supervised worker processes runs shard across (0 = in-process); the report is byte-identical at every width")
	worker := flag.Bool("worker", false, "serve jobs as a fleet worker over stdin/stdout (internal: -workers N re-executes this command with its flags plus -worker)")
	chaosWorkers := flag.Bool("chaos-workers", false, "self-chaos: crash/stall/truncate workers on early attempts")
	fleetSeed := flag.Uint64("fleet-seed", 1, "seed for retry jitter and worker self-chaos")
	hbTimeout := flag.Duration("hb-timeout", 2*time.Second, fmt.Sprintf("heartbeat silence before a busy worker is killed as hung (>= %v, two heartbeat periods)", minHBTimeout))
	reportPath := flag.String("report", "", "write the report to FILE instead of stdout (FILE.html: the HTML artifact); verdict lines stay on stdout/stderr")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "limit-chaos: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if !flagcheck.OK(os.Stderr, "limit-chaos",
		flagcheck.AtLeast("seeds", *seeds, 1),
		flagcheck.AtLeast("threads", *threads, 1),
		flagcheck.AtLeast("cores", *cores, 1),
		flagcheck.AtLeast("iters", *iters, 1),
		flagcheck.AtLeast("k", *k, 1),
		flagcheck.In("width", *width, chaos.MinWriteWidth, maxWidth),
		flagcheck.AtLeast("pool", *pool, 1),
		flagcheck.AtLeast("waves", *waves, 1),
		flagcheck.AtLeast("capacity", *capacity, 0),
		flagcheck.AtLeast("tenants", *tenants, 0),
		flagcheck.AtLeast("parallel", *parallel, 0),
		flagcheck.AtLeast("workers", *workers, 0),
		flagcheck.Check(*hbTimeout >= minHBTimeout, "hb-timeout", fmt.Sprintf(">= %v", minHBTimeout), *hbTimeout),
	) {
		os.Exit(2)
	}

	kind, space, assemble := "campaign", fleet.JobSpace(nil), assembler(nil)
	if *soak {
		// Flags shared with the campaign default to its values; one left
		// unset passes zero, which the soak's WithDefaults fills.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		shared := func(name string, v int) int {
			if set[name] {
				return v
			}
			return 0
		}
		kind = "soak"
		space, assemble = soakSpace(chaos.SoakConfig{
			Seeds: shared("seeds", *seeds), Pool: *pool, Waves: *waves,
			Iters: shared("iters", *iters), ComputeK: shared("k", *k),
			Cores: shared("cores", *cores), WriteWidth: shared("width", *width),
			SlotCapacity: *capacity, NoFixup: *nofixup, AblateReclaim: *ablateReclaim,
			Metrics: *metrics, Tenants: *tenants,
		}, *mixName)
	} else {
		if *ablateReclaim {
			fmt.Fprintln(os.Stderr, "limit-chaos: -ablate-reclaim requires -soak")
			os.Exit(2)
		}
		space, assemble = campaignSpace(chaos.Config{
			Seeds: *seeds, Threads: *threads, Cores: *cores, Iters: *iters,
			ComputeK: *k, WriteWidth: *width, NoFixup: *nofixup,
			Metrics: *metrics, Tenants: *tenants,
		}, *mixName)
	}
	if *worker {
		// The coordinator re-executed this command with its own flags, so
		// space is its space and -chaos-workers its self-chaos. Frames
		// own stdout; -report is not opened. A self-chaos kill exits 137,
		// the code a real SIGKILL reports, so the coordinator sees the
		// same thing either way.
		var storm fleet.ChaosConfig
		if *chaosWorkers {
			storm = fleet.KillStorm(*fleetSeed, *hbTimeout)
		}
		err := fleet.WorkerMain(os.Stdin, os.Stdout, space, storm)
		if errors.Is(err, fleet.ErrChaosKill) {
			os.Exit(137)
		}
		check(err)
		return
	}

	out, html := io.Writer(os.Stdout), false
	var f *os.File
	if *reportPath != "" {
		var err error
		f, err = os.Create(*reportPath)
		check(err)
		out, html = f, strings.HasSuffix(*reportPath, ".html")
	}

	fcfg := fleet.Config{Workers: *workers, Seed: *fleetSeed, HeartbeatTimeout: *hbTimeout, InlineParallel: *parallel}
	// Workers re-execute this binary. If its path cannot be resolved,
	// argv[0] stands in: failed spawns count against the budget and the
	// coordinator degrades to in-process execution.
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	// Each worker gets the flags this run parsed, then -worker. Taken
	// from os.Args, a trailing "--" would make -worker an argument.
	var args []string
	flag.Visit(func(fl *flag.Flag) { args = append(args, "-"+fl.Name+"="+fl.Value.String()) })
	rep := fleet.Run(fcfg, space, fleet.ProcSpawner(self, append(args, "-worker")...))
	if *workers > 0 {
		rep.RenderSummary(os.Stderr)
	}
	if !rep.Complete() {
		fmt.Fprintf(os.Stderr, "limit-chaos: run incomplete: %d job(s) quarantined, %d audit violation(s)\n",
			len(rep.Quarantined), len(rep.Violations))
		os.Exit(1)
	}
	o, err := assemble(rep.Payloads)
	check(err)
	if html {
		check(writeHTML(out, kind, rep.Jobs, o))
	} else {
		o.render(out)
	}
	if f != nil {
		check(f.Close())
	}
	check(o.verdict)
	fmt.Println(o.line)
}

// campaignSpace builds the read-path campaign's job space, narrowed to
// one mix when mix is set.
func campaignSpace(cfg chaos.Config, mix string) (fleet.JobSpace, assembler) {
	cfg = cfg.WithDefaults()
	cfg.Mixes = only(cfg.Mixes, mix, func(m chaos.Mix) string { return m.Name })
	return chaos.NewCampaignSpace(cfg), func(payloads [][]byte) (outcome, error) {
		res, err := chaos.AssembleCampaign(cfg, payloads)
		if err != nil {
			return outcome{}, err
		}
		line := "all invariants held under the full fault mix"
		if cfg.NoFixup {
			line = fmt.Sprintf("detected %d torn-read/invariant violation(s) with fixup disabled, as expected", res.TotalViolations())
		}
		return outcome{res.Render, res.Telemetry, res.Verdict(), line}, nil
	}
}

// soakSpace builds the lifecycle soak's job space, narrowed to one mix
// when mix is set.
func soakSpace(cfg chaos.SoakConfig, mix string) (fleet.JobSpace, assembler) {
	cfg = cfg.WithDefaults()
	cfg.Mixes = only(cfg.Mixes, mix, func(m chaos.SoakMix) string { return m.Name })
	return chaos.NewSoakSpace(cfg), func(payloads [][]byte) (outcome, error) {
		res, err := chaos.AssembleSoak(cfg, payloads)
		if err != nil {
			return outcome{}, err
		}
		line := fmt.Sprintf("soak clean: churn, kills, clone storms and exhaustion absorbed (%d run(s) degraded gracefully)",
			res.TotalDegraded())
		if cfg.NoFixup || cfg.AblateReclaim {
			line = fmt.Sprintf("detected %d violation(s) under ablation, as expected", res.TotalViolations())
		}
		return outcome{res.Render, res.Telemetry, res.Verdict(), line}, nil
	}
}

// only narrows matrix to the mix called name (all of it when name is
// empty). An unknown name lists the matrix and exits 2, matching the
// unknown-subcommand contract elsewhere in the toolchain.
func only[M any](matrix []M, name string, nameOf func(M) string) []M {
	if name == "" {
		return matrix
	}
	for i := range matrix {
		if nameOf(matrix[i]) == name {
			return matrix[i : i+1]
		}
	}
	fmt.Fprintf(os.Stderr, "limit-chaos: unknown mix %q; available mixes:\n", name)
	for _, m := range matrix {
		fmt.Fprintf(os.Stderr, "  %s\n", nameOf(m))
	}
	os.Exit(2)
	return nil
}

// writeHTML renders the outcome as one self-contained HTML artifact:
// the byte-deterministic report plus the merged telemetry registry
// when the run carried one. Fleet supervision stats stay out of it —
// they vary with worker count and timing — so the artifact is
// byte-identical at every width.
func writeHTML(w io.Writer, kind string, jobs int, o outcome) error {
	a := report.New(
		fmt.Sprintf("limit-chaos %s report", kind),
		fmt.Sprintf("%d jobs merged with commutative rules — identical at any shard width", jobs))
	var sb strings.Builder
	o.render(&sb)
	a.AddPre("Assembled report", sb.String())
	if o.telemetry != nil {
		a.AddRegistry("Merged telemetry", o.telemetry)
	}
	return a.Render(w)
}

// check reports a runtime failure (an unwritable report, a failed
// verdict) and exits 1.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "limit-chaos: %v\n", err)
		os.Exit(1)
	}
}
