package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"limitsim/internal/flagcheck"
	"limitsim/internal/metrics"
	"limitsim/internal/profile"
	"limitsim/internal/report"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
)

// runReport assembles one self-contained HTML artifact from
// measurement files on disk: a ranked bottleneck table from profiler
// JSONL (limit-profile -format jsonl), windowed metric charts from
// series JSONL (limitctl metrics -series -format jsonl) or from a raw
// frame stream windowed here (-frames with -window), telemetry
// registry tables (limitctl stats -format jsonl; several files merge
// commutatively), and a flame view from Chrome-span JSON
// (limit-profile -flame). At least one input is required; the artifact
// is byte-deterministic for the same inputs. Returns the process exit
// code.
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("limitctl report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the HTML artifact to FILE (default stdout)")
	title := fs.String("title", "limitsim report", "artifact title")
	subtitle := fs.String("subtitle", "", "artifact subtitle")
	profileFile := fs.String("profile", "", "ranked findings JSONL from limit-profile -format jsonl")
	seriesFile := fs.String("series", "", "windowed series JSONL from limitctl metrics -series -format jsonl")
	framesFile := fs.String("frames", "", "raw frame JSONL from limitctl metrics -format frames (windowed here; needs -window)")
	window := fs.Int64("window", 0, "window size in cycles for -frames (must be positive)")
	splitName := fs.String("split", "none", "series split for -frames: none, tenant, thread")
	metricList := fs.String("metric", "", "comma-separated metrics for -frames (default: all built-ins)")
	telemetryFiles := fs.String("telemetry", "", "comma-separated telemetry JSONL files (merged commutatively)")
	flameFile := fs.String("flame", "", "Chrome-span JSON from limit-profile -flame")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "limitctl report: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *profileFile == "" && *seriesFile == "" && *framesFile == "" && *telemetryFiles == "" && *flameFile == "" {
		fmt.Fprintln(stderr, "limitctl report: no inputs (need at least one of -profile, -series, -frames, -telemetry, -flame)")
		fs.Usage()
		return 2
	}
	if !flagcheck.OK(stderr, "limitctl report", flagcheck.AtLeast("window", int(*window), 0)) {
		return 2
	}
	if *framesFile != "" && *window <= 0 {
		fmt.Fprintf(stderr, "limitctl report: -frames needs a positive -window (got %d)\n", *window)
		fs.Usage()
		return 2
	}
	split, ok := metrics.ParseSplit(*splitName)
	if !ok {
		fmt.Fprintf(stderr, "limitctl report: unknown -split %q (none, tenant, thread)\n", *splitName)
		fs.Usage()
		return 2
	}

	a := report.New(*title, *subtitle)

	if *profileFile != "" {
		f, err := os.Open(*profileFile)
		if err != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", err)
			return 1
		}
		recs, self, perr := profile.ParseJSONL(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", perr)
			return 1
		}
		a.AddFindings("Ranked bottlenecks", recs, self)
	}

	if *seriesFile != "" {
		f, err := os.Open(*seriesFile)
		if err != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", err)
			return 1
		}
		rows, perr := metrics.ParseSeriesJSONL(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", perr)
			return 1
		}
		a.AddSeries("Metric time series", rows)
	}

	if *framesFile != "" {
		defs, code := resolveMetricDefs(*metricList, stderr)
		if code != 0 {
			return code
		}
		f, err := os.Open(*framesFile)
		if err != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", err)
			return 1
		}
		frames, perr := metrics.ParseJSONL(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", perr)
			return 1
		}
		ss, werr := metrics.Windowed(frames, uint64(*window), split)
		if werr != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", werr)
			return 1
		}
		a.AddSeries(fmt.Sprintf("Metric time series (window=%d cycles, split=%s)", *window, split), ss.Rows(defs))
	}

	if *telemetryFiles != "" {
		var merged *telemetry.Registry
		for _, name := range strings.Split(*telemetryFiles, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			f, err := os.Open(name)
			if err != nil {
				fmt.Fprintf(stderr, "limitctl report: %v\n", err)
				return 1
			}
			reg, perr := telemetry.ParseJSONL(f)
			f.Close()
			if perr != nil {
				fmt.Fprintf(stderr, "limitctl report: %s: %v\n", name, perr)
				return 1
			}
			if merged == nil {
				merged = reg
			} else if err := merged.Merge(reg); err != nil {
				fmt.Fprintf(stderr, "limitctl report: merging %s: %v\n", name, err)
				return 1
			}
		}
		if merged == nil {
			fmt.Fprintln(stderr, "limitctl report: -telemetry selected no files")
			return 2
		}
		a.AddRegistry("Telemetry", merged)
	}

	if *flameFile != "" {
		f, err := os.Open(*flameFile)
		if err != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", err)
			return 1
		}
		spans, perr := trace.ParseChromeSpans(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", perr)
			return 1
		}
		a.AddFlame("Flame view", spans)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "limitctl report: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := a.Render(w); err != nil {
		fmt.Fprintf(stderr, "limitctl report: %v\n", err)
		return 1
	}
	return 0
}

// resolveMetricDefs resolves a -metric CSV selection against the
// built-in catalogue (all built-ins when empty), or exits 2 naming the
// unknown metric.
func resolveMetricDefs(metricList string, stderr io.Writer) ([]*metrics.Def, int) {
	var defs []*metrics.Def
	if metricList == "" {
		for i := range metrics.Builtin {
			defs = append(defs, &metrics.Builtin[i])
		}
		return defs, 0
	}
	for _, name := range strings.Split(metricList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		d := metrics.Lookup(name)
		if d == nil {
			fmt.Fprintf(stderr, "limitctl report: unknown metric %q\n", name)
			return nil, 2
		}
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		fmt.Fprintln(stderr, "limitctl report: -metric selected no metrics")
		return nil, 2
	}
	return defs, 0
}
