package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"limitsim/internal/trace"
)

// profileArgs keeps the test workload small but large enough that the
// known-answer ranking is stable.
var profileArgs = []string{"-app", "mysql", "-scale", "0.3"}

func TestGoldenDeterminism(t *testing.T) {
	for _, format := range []string{"text", "markdown", "jsonl"} {
		args := append(append([]string{}, profileArgs...), "-format", format)
		a := run(t, runProfile, args...)
		b := run(t, runProfile, args...)
		if a != b {
			t.Errorf("format=%s: two same-seed runs differ", format)
		}
		if a == "" {
			t.Errorf("format=%s: empty output", format)
		}
	}
}

func TestMySQLKnownAnswer(t *testing.T) {
	out := run(t, runProfile, profileArgs...)
	lines := strings.Split(out, "\n")
	var rank1 string
	for _, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "1 ") {
			rank1 = ln
			break
		}
	}
	if !strings.Contains(rank1, "txn/table.cs") || !strings.Contains(rank1, "memory-bound") {
		t.Errorf("mysql rank-1 row should be txn/table.cs memory-bound, got %q", rank1)
	}
	for _, want := range []string{"profiler self-cost", "vs bare 4-event LiMiT read pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

func TestJSONLValid(t *testing.T) {
	out := run(t, runProfile, append(append([]string{}, profileArgs...), "-format", "jsonl")...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("jsonl output too short: %d lines", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
	}
}

func TestFlameExportLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flame.json")
	run(t, runProfile, append(append([]string{}, profileArgs...), "-flame", path)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("flame export is not valid JSON: %v", err)
	}
	spans, err := trace.ParseChromeSpans(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Error("flame export holds no spans")
	}
}

func TestBudgetModePicksAStride(t *testing.T) {
	out := run(t, runProfile, "-app", "forkjoin", "-scale", "0.3", "-budget", "1.10")
	if !strings.Contains(out, "calibration: stride-1 slowdown") {
		t.Errorf("budget mode must disclose its calibration, got:\n%s", out)
	}
	if !strings.Contains(out, "for budget 1.100x") {
		t.Errorf("calibration line lacks the budget, got:\n%s", out)
	}
}

func TestCustomBundle(t *testing.T) {
	out := run(t, runProfile, "-app", "forkjoin", "-scale", "0.3",
		"-events", "cycles,cycles:k,llc-miss")
	if !strings.Contains(out, "Bottleneck profile") {
		t.Errorf("custom bundle run produced no report:\n%s", out)
	}
}

func TestBadInputsExit2(t *testing.T) {
	cases := [][]string{
		{"-app", "nope"},
		{"-format", "bogus"},
		{"-events", "no-such-event"},
		{"-events", "l1d-miss,cycles"}, // cycles must come first
		{"-stride", "0"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := runProfile(args, &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestHistAndMetricsRender(t *testing.T) {
	out := run(t, runProfile, "-app", "forkjoin", "-scale", "0.3", "-hist", "-metrics")
	for _, want := range []string{"[2^", "profile.pairs", "profile.self.cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// The -html artifact is byte-deterministic: across repeated runs, and
// across calibration fan-out widths (the runner must keep parallelism
// invisible all the way into the report bytes).
func TestHTMLReportDeterministic(t *testing.T) {
	dir := t.TempDir()
	render := func(name string, extra ...string) string {
		path := filepath.Join(dir, name)
		args := append(append([]string{}, profileArgs...), "-html", path)
		run(t, runProfile, append(args, extra...)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	a := render("a.html")
	b := render("b.html")
	if a != b {
		t.Error("two same-seed HTML reports differ")
	}
	if !strings.HasPrefix(a, "<!DOCTYPE html>") {
		t.Error("missing doctype")
	}
	for _, want := range []string{"Ranked bottlenecks", "Flame view", "<svg", "profiler self-cost"} {
		if !strings.Contains(a, want) {
			t.Errorf("HTML report lacks %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "<script"} {
		if strings.Contains(a, banned) {
			t.Errorf("HTML report contains %q — not self-contained", banned)
		}
	}

	serial := render("serial.html", "-budget", "1.10", "-parallel", "1")
	wide := render("wide.html", "-budget", "1.10", "-parallel", "8")
	if serial != wide {
		t.Error("calibration fan-out width changed the HTML report bytes")
	}
}
