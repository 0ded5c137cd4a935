// Command limit-chaos runs seeded fault-injection campaigns against
// the LiMiT read path: N seeds × a fault-mix matrix (forced preemption
// inside read-critical regions, spurious/delayed/coalesced overflow
// interrupts, migration storms, signal delays, TLB+cache flush storms)
// on a PMU with narrowed writable counters, with the invariant checker
// attached to every run.
//
// Usage:
//
//	limit-chaos [-seeds 32] [-threads 4] [-cores 4] [-iters 400]
//	            [-k 25] [-width 12] [-tenants N] [-mix NAME]
//	            [-nofixup] [-metrics] [-parallel N]
//	limit-chaos -soak [-seeds 8] [-pool 4] [-waves 6] [-iters 40]
//	            [-k 20] [-cores 4] [-width 10] [-capacity N]
//	            [-tenants N] [-mix NAME]
//	            [-nofixup] [-ablate-reclaim] [-metrics] [-parallel N]
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
// -parallel fans independent runs out across N workers (0, the
// default, uses GOMAXPROCS; 1 selects the serial engine). Runs are
// self-contained simulations whose outcomes merge in (mix, seed) key
// order, so the report is byte-identical at every width.
//
// -metrics attaches the kernel telemetry layer to every run and
// appends the campaign-wide merged metrics block (context-switch and
// PMI-latency histograms, rewind/fold/denial counters) to the report;
// like the rest of the report it is byte-deterministic for a given
// configuration.
//
// With the fixup patch active (the default) a campaign must finish
// with zero invariant violations — that is the paper's atomicity claim
// under adversarial schedules, and the process exits nonzero if it
// breaks. With -nofixup the same campaign must *detect* torn reads:
// the process exits nonzero if the sabotaged configuration somehow
// reports none (a dead checker is as bad as a torn read).
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
	"flag"
	"fmt"
	"io"
	"os"

	"limitsim/internal/chaos"
)

func main() {
	soak := flag.Bool("soak", false, "run the thread-lifecycle soak campaign instead of the read-path campaign")
	seeds := flag.Int("seeds", 0, "seeds per fault mix (default 32, soak 8)")
	threads := flag.Int("threads", 6, "workload threads (read-path campaign)")
	cores := flag.Int("cores", 4, "machine cores")
	iters := flag.Int("iters", 0, "reads per thread (default 400, soak 40 per worker)")
	k := flag.Int("k", 0, "compute instructions per measured region (default 25, soak 20)")
	width := flag.Int("width", 0, "PMU writable counter width in bits (default 12, soak 10; narrow = frequent folds)")
	pool := flag.Int("pool", 4, "soak worker-pool width")
	waves := flag.Int("waves", 6, "soak clone/join waves per run")
	capacity := flag.Int("capacity", 0, "soak pinned-slot ledger capacity (default 2*(pool+1)+4)")
	tenants := flag.Int("tenants", 0, "guest-VM count; >1 time-shares the cores between tenant VMs under the two-level scheduler")
	mixName := flag.String("mix", "", "run only the named fault mix (an unknown name lists the available mixes and exits 2)")
	nofixup := flag.Bool("nofixup", false, "disable fixup-region registration (ablation: torn reads expected)")
	ablateReclaim := flag.Bool("ablate-reclaim", false, "disable exit-time resource reclamation (soak ablation: leaks expected)")
	metrics := flag.Bool("metrics", false, "attach kernel telemetry to every run and append the merged metrics block")
	parallel := flag.Int("parallel", 0, "worker count runs fan out across (0 = GOMAXPROCS, 1 = serial); the report is byte-identical at every width")
	report := flag.String("report", "", "write the campaign report to FILE instead of stdout (verdict lines stay on stdout/stderr)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "limit-chaos: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	out := io.Writer(os.Stdout)
	if *report != "" {
		f, err := os.Create(*report)
		check(err)
		defer f.Close()
		out = f
	}

	if *soak {
		runSoak(out, *seeds, *pool, *waves, *iters, *k, *cores, *width, *capacity, *parallel, *tenants, *mixName, *nofixup, *ablateReclaim, *metrics)
		return
	}
	if *ablateReclaim {
		fmt.Fprintln(os.Stderr, "limit-chaos: -ablate-reclaim requires -soak")
		os.Exit(2)
	}
	if *seeds == 0 {
		*seeds = 32
	}
	if *iters == 0 {
		*iters = 400
	}
	if *k == 0 {
		*k = 25
	}
	if *width == 0 {
		*width = 12
	}

	cfg := chaos.Config{
		Seeds:      *seeds,
		Threads:    *threads,
		Cores:      *cores,
		Iters:      *iters,
		ComputeK:   *k,
		WriteWidth: *width,
		NoFixup:    *nofixup,
		Metrics:    *metrics,
		Parallel:   *parallel,
		Tenants:    *tenants,
	}
	if *mixName != "" {
		matrix := chaos.DefaultMixes()
		if *tenants > 1 {
			matrix = chaos.TenantMixes()
		}
		for _, m := range matrix {
			if m.Name == *mixName {
				cfg.Mixes = []chaos.Mix{m}
			}
		}
		if len(cfg.Mixes) == 0 {
			names := make([]string, len(matrix))
			for i, m := range matrix {
				names[i] = m.Name
			}
			unknownMix(*mixName, names)
		}
	}
	res := chaos.Run(cfg)
	res.Render(out)
	check(res.Verdict())
	if *nofixup {
		fmt.Printf("detected %d torn-read/invariant violation(s) with fixup disabled, as expected\n", res.TotalViolations())
	} else {
		fmt.Println("all invariants held under the full fault mix")
	}
}

// runSoak executes the lifecycle soak campaign and applies its exit
// discipline (SoakResult.Verdict).
func runSoak(out io.Writer, seeds, pool, waves, iters, k, cores, width, capacity, parallel, tenants int, mixName string, nofixup, ablateReclaim, metrics bool) {
	if seeds == 0 {
		seeds = 8
	}
	cfg := chaos.SoakConfig{
		Seeds:         seeds,
		Pool:          pool,
		Waves:         waves,
		Iters:         iters,
		ComputeK:      k,
		Cores:         cores,
		WriteWidth:    width,
		SlotCapacity:  capacity,
		NoFixup:       nofixup,
		AblateReclaim: ablateReclaim,
		Metrics:       metrics,
		Parallel:      parallel,
		Tenants:       tenants,
	}
	if mixName != "" {
		matrix := chaos.SoakMixes(pool, tenants)
		for _, m := range matrix {
			if m.Name == mixName {
				cfg.Mixes = []chaos.SoakMix{m}
			}
		}
		if len(cfg.Mixes) == 0 {
			names := make([]string, len(matrix))
			for i, m := range matrix {
				names[i] = m.Name
			}
			unknownMix(mixName, names)
		}
	}
	res := chaos.RunSoak(cfg)
	res.Render(out)
	check(res.Verdict())
	if nofixup || ablateReclaim {
		fmt.Printf("detected %d violation(s) under ablation, as expected\n", res.TotalViolations())
	} else {
		fmt.Printf("soak clean: churn, kills, clone storms and exhaustion absorbed (%d run(s) degraded gracefully)\n",
			res.TotalDegraded())
	}
}

// check reports a runtime failure (an unwritable report, a failed
// verdict) and exits 1.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "limit-chaos: %v\n", err)
		os.Exit(1)
	}
}

// unknownMix reports an unrecognized -mix name with the valid choices
// and exits with the usage-error status, matching the unknown-
// subcommand contract elsewhere in the toolchain.
func unknownMix(name string, names []string) {
	fmt.Fprintf(os.Stderr, "limit-chaos: unknown mix %q; available mixes:\n", name)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	os.Exit(2)
}
