package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"limitsim/internal/flagcheck"
	"limitsim/internal/metrics"
	"limitsim/internal/profile"
	"limitsim/internal/report"
	"limitsim/internal/trace"
)

// runReport assembles one self-contained HTML artifact from
// measurement files on disk: a ranked bottleneck table from profiler
// JSONL (limitctl profile -format jsonl), windowed metric charts from
// series JSONL (limitctl metrics -window N -format jsonl) or from a
// raw frame stream windowed here (-frames with -window), telemetry
// registry tables (limitctl stats -format jsonl; several files fold
// like merge), and a flame view from Chrome-span JSON (limitctl
// profile -flame). At least one input is required; the artifact is
// byte-deterministic for the same inputs. Returns the process exit
// code.
func runReport(args []string, stdout, stderr io.Writer) int {
	c := newCommand("limitctl report", stderr)
	out := c.String("o", "", "write the HTML artifact to FILE (default stdout)")
	title := c.String("title", "limitsim report", "artifact title")
	subtitle := c.String("subtitle", "", "artifact subtitle")
	profileFile := c.String("profile", "", "ranked findings JSONL from limitctl profile -format jsonl")
	seriesFile := c.String("series", "", "windowed series JSONL from limitctl metrics -window N -format jsonl")
	framesFile := c.String("frames", "", "raw frame JSONL from limitctl metrics -format frames (windowed here; needs -window)")
	window := c.Int64("window", 0, "window size in cycles for -frames (must be positive)")
	splitName := c.String("split", "none", "series split for -frames: none, tenant, thread")
	metricList := c.String("metric", "", "comma-separated metrics for -frames (default: all built-ins)")
	telemetryFiles := c.String("telemetry", "", "comma-separated telemetry JSONL files (merged commutatively)")
	flameFile := c.String("flame", "", "Chrome-span JSON from limitctl profile -flame")
	var defs []*metrics.Def
	var split metrics.Split
	var telemetryPaths []string
	if code, ok := c.parse(args, func() []error {
		var derr, serr, ierr error
		defs, derr = metricDefs(*metricList)
		split, serr = splitCheck(*splitName)
		for _, name := range strings.Split(*telemetryFiles, ",") {
			if name = strings.TrimSpace(name); name != "" {
				telemetryPaths = append(telemetryPaths, name)
			}
		}
		if *telemetryFiles != "" && telemetryPaths == nil {
			ierr = errors.New("-telemetry selected no files")
		} else if *profileFile == "" && *seriesFile == "" && *framesFile == "" && telemetryPaths == nil && *flameFile == "" {
			ierr = errors.New("no inputs (need at least one of -profile, -series, -frames, -telemetry, -flame)")
		}
		return []error{
			ierr,
			flagcheck.AtLeast("window", int(*window), 0),
			flagcheck.Check(*framesFile == "" || *window > 0, "window", "positive with -frames", *window),
			serr, derr,
		}
	}); !ok {
		return code
	}

	a := report.New(*title, *subtitle)
	sections := []struct {
		path string
		add  func(io.Reader) error
	}{
		{*profileFile, func(r io.Reader) error {
			recs, self, err := profile.ParseJSONL(r)
			a.AddFindings("Ranked bottlenecks", recs, self)
			return err
		}},
		{*seriesFile, func(r io.Reader) error {
			rows, err := metrics.ParseSeriesJSONL(r)
			a.AddSeries("Metric time series", rows)
			return err
		}},
		{*framesFile, func(r io.Reader) error {
			frames, err := metrics.ParseJSONL(r)
			if err != nil {
				return err
			}
			ss, err := metrics.Windowed(frames, uint64(*window), split)
			if err != nil {
				return err
			}
			a.AddSeries(fmt.Sprintf("Metric time series (window=%d cycles, split=%s)", *window, split), ss.Rows(defs))
			return nil
		}},
	}
	for _, sec := range sections {
		if sec.path == "" {
			continue
		}
		if err := readFile(sec.path, sec.add); err != nil {
			return c.exitCode(err)
		}
	}
	if telemetryPaths != nil {
		merged, err := fold(telemetryPaths)
		if err != nil {
			return c.exitCode(err)
		}
		a.AddRegistry("Telemetry", merged)
	}
	if *flameFile != "" {
		if err := readFile(*flameFile, func(r io.Reader) error {
			spans, err := trace.ParseChromeSpans(r)
			a.AddFlame("Flame view", spans)
			return err
		}); err != nil {
			return c.exitCode(err)
		}
	}

	if *out != "" {
		return c.exitCode(writeFile(*out, a.Render))
	}
	return c.exitCode(a.Render(stdout))
}
