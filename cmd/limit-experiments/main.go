// Command limit-experiments runs the complete reproduction — every
// table, figure, ablation and experiment in the experiments.Sections
// registry (DESIGN.md's per-experiment index) — and writes the results
// either as plain text (default) or as the Markdown body used in
// EXPERIMENTS.md (-markdown).
//
// A failed experiment (faulted or deadlocked simulation, or violated
// result oracles) does not abort the whole reproduction: the section
// reports the error, the kernel trace tail (when available) goes to
// stderr, the remaining sections still run, and the process exits 1.
//
// Usage:
//
//	limit-experiments [-scale 1.0] [-markdown] [-parallel N] [-only PREFIX]
//
// -parallel fans each experiment's independent trials out across N
// workers (0, the default, uses GOMAXPROCS; 1 selects the serial
// engine). Trials are self-contained simulations and results land in
// trial-index order, so every table and figure is byte-identical at
// every width.
//
// -only runs just the sections whose title starts with the given
// prefix (case-insensitive), e.g. -only M2 or -only "F5". Sections not
// selected are skipped entirely — their simulations never run. A
// prefix that matches no section lists the section titles and exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"limitsim/internal/experiments"
	"limitsim/internal/flagcheck"
	"limitsim/internal/machine"
)

func main() {
	scale := flag.Float64("scale", 1.0, "experiment scale factor")
	markdown := flag.Bool("markdown", false, "emit Markdown section wrappers")
	parallel := flag.Int("parallel", 0, "worker count trials fan out across (0 = GOMAXPROCS, 1 = serial); output is byte-identical at every width")
	only := flag.String("only", "", "run only sections whose title starts with this prefix (case-insensitive; no match lists the sections and exits 2)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "limit-experiments: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if !flagcheck.OK(os.Stderr, "limit-experiments",
		flagcheck.Positive("scale", *scale),
		flagcheck.AtLeast("parallel", *parallel, 0),
	) {
		os.Exit(2)
	}

	all := experiments.Sections(experiments.Scale(*scale))
	var selected []experiments.Section
	for _, sec := range all {
		if strings.HasPrefix(strings.ToLower(sec.Title), strings.ToLower(*only)) {
			selected = append(selected, sec)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "limit-experiments: no section matches -only %q; available sections:\n", *only)
		for _, sec := range all {
			fmt.Fprintf(os.Stderr, "  %s\n", sec.Title)
		}
		os.Exit(2)
	}

	experiments.SetParallel(*parallel)
	w := os.Stdout
	failed := 0
	for _, sec := range selected {
		if *markdown {
			fmt.Fprintf(w, "### %s\n\n```text\n", sec.Title)
		} else {
			fmt.Fprintf(w, "%s\n%s\n\n", sec.Title, strings.Repeat("#", len(sec.Title)))
		}
		if err := sec.Run(w); err != nil {
			failed++
			fmt.Fprintf(w, "(experiment failed: %v)\n", err)
			fmt.Fprintf(os.Stderr, "limit-experiments: %s: %v\n", sec.Title, err)
			var fe *machine.FaultError
			if errors.As(err, &fe) {
				fmt.Fprintln(os.Stderr, "kernel trace tail:")
				fe.DumpTrace(os.Stderr, 40)
			}
		}
		if *markdown {
			fmt.Fprintf(w, "```\n\n")
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "limit-experiments: %d section(s) failed\n", failed)
		os.Exit(1)
	}
}
