package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"limitsim/internal/metrics"
)

// metricsArgs is the fast deterministic base invocation for the
// metrics subcommand tests.
var metricsArgs = []string{"-app", "forkjoin", "-scale", "0.3"}

func TestMetricsSeriesDeterminism(t *testing.T) {
	for _, format := range []string{"text", "jsonl"} {
		args := append(append([]string{}, metricsArgs...),
			"-window", "100000", "-format", format)
		a := run(t, runMetrics, args...)
		b := run(t, runMetrics, args...)
		if a != b {
			t.Errorf("format=%s: two same-seed series runs differ", format)
		}
		if a == "" {
			t.Errorf("format=%s: empty output", format)
		}
	}
}

func TestMetricsSeriesJSONLValid(t *testing.T) {
	out := run(t, runMetrics, append(append([]string{}, metricsArgs...),
		"-window", "100000", "-format", "jsonl")...)
	rows, err := metrics.ParseSeriesJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("only %d series rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Window < rows[i-1].Window {
			t.Fatal("rows not window-ordered")
		}
	}
	// The signed per-window inputs must telescope to the totals the
	// same stream reports — checked here end to end through the CLI.
	frames, err := metrics.ParseJSONL(strings.NewReader(
		run(t, runMetrics, append(append([]string{}, metricsArgs...), "-format", "frames")...)))
	if err != nil {
		t.Fatal(err)
	}
	totals := metrics.Totals(frames)
	sums := make(map[string]int64)
	for _, r := range rows {
		for name, d := range r.Inputs {
			sums[name] += d
		}
	}
	if totals["instructions"] == 0 || sums["instructions"] != int64(totals["instructions"]) {
		t.Errorf("windowed instructions %d != end-of-run total %d",
			sums["instructions"], totals["instructions"])
	}
}

// -tenants N > 1 stamps every emitted frame with its tenant id;
// single-tenant streams keep the historical shape with no tenant
// field.
func TestMetricsFramesTenantField(t *testing.T) {
	tenanted := run(t, runMetrics, append(append([]string{}, metricsArgs...),
		"-tenants", "2", "-format", "frames")...)
	for i, ln := range strings.Split(strings.TrimSpace(tenanted), "\n") {
		if !strings.Contains(ln, `"tenant":`) {
			t.Fatalf("line %d lacks tenant id with -tenants 2: %s", i+1, ln)
		}
	}
	plain := run(t, runMetrics, append(append([]string{}, metricsArgs...), "-format", "frames")...)
	if strings.Contains(plain, `"tenant":`) {
		t.Error("single-tenant frames grew a tenant field")
	}
}

func TestMetricsWindowValidationExits2(t *testing.T) {
	cases := [][]string{
		{"-window", "-100"},                       // negative window
		{"-format", "jsonl"},                      // jsonl is a series format
		{"-split", "bogus"},                       // unknown split
		{"-tenants", "0"},                         // no guests
		{"-window", "100000", "-metric", "bogus"}, // unknown metric
	}
	for _, extra := range cases {
		var out, errb bytes.Buffer
		args := append(append([]string{}, metricsArgs...), extra...)
		if code := runMetrics(args, &out, &errb); code != 2 {
			t.Errorf("metrics %v exited %d, want 2 (stderr: %s)", extra, code, errb.String())
		}
		if errb.Len() == 0 {
			t.Errorf("metrics %v: exit 2 with silent stderr", extra)
		}
	}
	var out, errb bytes.Buffer
	if code := runMetrics(append(append([]string{}, metricsArgs...), "-window", "-100"), &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-window must be >= 0 (got -100)") || !strings.Contains(errb.String(), "Usage") {
		t.Errorf("window error shape: %s", errb.String())
	}
}

// End-to-end report assembly: measurement files written by the other
// subcommands feed limitctl report, which must produce a deterministic
// self-contained artifact.
func TestReportAssemblesFromFiles(t *testing.T) {
	dir := t.TempDir()
	framesFile := filepath.Join(dir, "frames.jsonl")
	seriesFile := filepath.Join(dir, "series.jsonl")
	telemetryFile := filepath.Join(dir, "stats.jsonl")

	frames := run(t, runMetrics, append(append([]string{}, metricsArgs...), "-format", "frames")...)
	series := run(t, runMetrics, append(append([]string{}, metricsArgs...),
		"-window", "100000", "-format", "jsonl")...)
	stats := run(t, runStats, "-app", "forkjoin", "-scale", "0.3", "-format", "jsonl")
	for file, content := range map[string]string{
		framesFile: frames, seriesFile: series, telemetryFile: stats,
	} {
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	args := []string{
		"-series", seriesFile,
		"-frames", framesFile, "-window", "150000", "-split", "thread",
		"-telemetry", telemetryFile + "," + telemetryFile, // merges commutatively
		"-title", "cli test",
	}
	a := run(t, runReport, args...)
	b := run(t, runReport, args...)
	if a != b {
		t.Error("two report assemblies from the same files differ")
	}
	for _, want := range []string{
		"<!DOCTYPE html>", "cli test", "Metric time series",
		"window=150000 cycles, split=thread", "Telemetry", "kern.syscalls",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("artifact lacks %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "<script"} {
		if strings.Contains(a, banned) {
			t.Errorf("artifact contains %q", banned)
		}
	}

	// -o writes the same bytes to disk.
	outFile := filepath.Join(dir, "report.html")
	run(t, runReport, append(args, "-o", outFile)...)
	onDisk, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != a {
		t.Error("-o file differs from stdout artifact")
	}
}

func TestReportUsageErrorsExit2(t *testing.T) {
	cases := [][]string{
		{},                                     // no inputs at all
		{"-frames", "x.jsonl"},                 // frames without window
		{"-frames", "x.jsonl", "-window", "0"}, // non-positive window
		{"-frames", "x.jsonl", "-window", "100", "-split", "bogus"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := runReport(args, &out, &errb); code != 2 {
			t.Errorf("report %v exited %d, want 2 (stderr: %s)", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "Usage") {
			t.Errorf("report %v: no usage on stderr: %s", args, errb.String())
		}
	}
	// A missing input file is an I/O failure (exit 1), not usage.
	var out, errb bytes.Buffer
	if code := runReport([]string{"-profile", "/nonexistent/p.jsonl"}, &out, &errb); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
}
