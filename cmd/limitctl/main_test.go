package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"limitsim/internal/trace"
)

// traceArgs is a small deterministic workload for the subcommand
// tests: forkjoin finishes in a few hundred thousand cycles, and the
// sampling method raises real PMIs.
var traceArgs = []string{"-app", "forkjoin", "-method", "sample", "-scale", "0.3", "-period", "20000"}

func run(t *testing.T, f func(args []string, stdout, stderr io.Writer) int, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := f(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	return out.String()
}

func TestTraceGoldenDeterminism(t *testing.T) {
	for _, format := range []string{"text", "chrome", "jsonl"} {
		args := append(append([]string{}, traceArgs...), "-format", format)
		a := run(t, runTrace, args...)
		b := run(t, runTrace, args...)
		if a != b {
			t.Errorf("format=%s: two same-seed runs differ", format)
		}
		if a == "" {
			t.Errorf("format=%s: empty output", format)
		}
	}
}

func TestTraceChromeRoundTrip(t *testing.T) {
	chromeOut := run(t, runTrace, append(append([]string{}, traceArgs...), "-format", "chrome")...)
	jsonlOut := run(t, runTrace, append(append([]string{}, traceArgs...), "-format", "jsonl")...)

	// Decode both forms with encoding/json: the chrome document as one
	// object (cycle and arg exact in args), the JSONL stream line by
	// line.
	type event struct {
		Cycle     uint64
		Core, TID int
		Kind      string
		Arg       uint64
	}
	var doc struct {
		TraceEvents []struct {
			Name     string
			PID, TID int
			Args     struct{ Cycle, Arg uint64 }
		}
	}
	if err := json.Unmarshal([]byte(chromeOut), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var fromChrome, fromJSONL []event
	for _, e := range doc.TraceEvents {
		fromChrome = append(fromChrome, event{Cycle: e.Args.Cycle, Core: e.PID, TID: e.TID, Kind: e.Name, Arg: e.Args.Arg})
	}
	for _, line := range strings.Split(strings.TrimSpace(jsonlOut), "\n") {
		var e event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
		fromJSONL = append(fromJSONL, e)
	}
	// Both exports encode the same deterministic run, so they must
	// decode to the identical event sequence.
	if len(fromChrome) == 0 || len(fromChrome) != len(fromJSONL) {
		t.Fatalf("chrome %d events, jsonl %d", len(fromChrome), len(fromJSONL))
	}
	for i := range fromChrome {
		if fromChrome[i] != fromJSONL[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, fromChrome[i], fromJSONL[i])
		}
	}

	// Every kind must export by name, and a real run's trace must show
	// scheduling, syscall and PMI events.
	seen := map[string]bool{}
	for _, e := range fromChrome {
		if strings.HasPrefix(e.Kind, "kind(") {
			t.Errorf("event %+v exports an unnamed kind", e)
		}
		seen[e.Kind] = true
	}
	for _, k := range []trace.Kind{trace.SwitchIn, trace.SwitchOut, trace.Syscall, trace.PMI} {
		if !seen[k.String()] {
			t.Errorf("trace lacks %v events", k)
		}
	}
}

func TestStatsDeterminism(t *testing.T) {
	for _, format := range []string{"text", "jsonl"} {
		args := []string{"-app", "forkjoin", "-scale", "0.3", "-format", format}
		a := run(t, runStats, args...)
		b := run(t, runStats, args...)
		if a != b {
			t.Errorf("format=%s: two same-seed stats runs differ", format)
		}
		for _, want := range []string{"kern.syscalls", "kern.switch.out.cycles", "limit.reads.exact"} {
			if !strings.Contains(a, want) {
				t.Errorf("format=%s: output lacks %q", format, want)
			}
		}
	}
}

func TestStatsJSONLValid(t *testing.T) {
	out := run(t, runStats, "-app", "forkjoin", "-scale", "0.3", "-format", "jsonl")
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
	}
}

// Run mode is a registry entry like the other subcommands, so it runs
// in process: two same-seed runs print the same bytes.
func TestRunDeterminism(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-method", "limit", "-hist", "-threads"},
			[]string{"Kernel statistics", "Synchronization profile", "Per-thread", "Critical-section length histogram"}},
		{[]string{"-method", "sample"},
			[]string{"Kernel statistics", "sampled attribution"}},
	} {
		args := append([]string{"-app", "mysql", "-scale", "0.3"}, tc.args...)
		a := run(t, runRun, args...)
		if b := run(t, runRun, args...); a != b {
			t.Errorf("%v: two same-seed runs differ", tc.args)
		}
		for _, want := range tc.want {
			if !strings.Contains(a, want) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, want, a)
			}
		}
	}
}

func TestHelpNamesEverySubcommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf, flag.NewFlagSet("limitctl", flag.ContinueOnError))
	help := buf.String()
	if len(subcommands()) < 8 {
		t.Fatalf("subcommand registry shrank to %d entries", len(subcommands()))
	}
	for _, sc := range subcommands() {
		if !strings.Contains(help, sc.Name) {
			t.Errorf("help does not name subcommand %q:\n%s", sc.Name, help)
		}
		if sc.Blurb == "" {
			t.Errorf("subcommand %q has no blurb", sc.Name)
		}
	}
	if !strings.Contains(help, "usage: limitctl") {
		t.Errorf("help lacks the usage line:\n%s", help)
	}
}

func TestRegistryRunnersMatchDispatch(t *testing.T) {
	// main is one registry lookup, so every entry, run and list
	// included, must carry the Run function it dispatches to.
	byName := map[string]bool{}
	for _, sc := range subcommands() {
		if sc.Run == nil {
			t.Errorf("subcommand %q has no Run function", sc.Name)
		}
		byName[sc.Name] = true
	}
	for _, name := range []string{"run", "list", "trace", "stats", "merge", "metrics", "report", "profile"} {
		if !byName[name] {
			t.Errorf("registry lacks %q", name)
		}
	}
}

func TestUnknownFormatExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runTrace([]string{"-format", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("trace -format=bogus exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") || !strings.Contains(errb.String(), "Usage") {
		t.Errorf("trace error shape: %s", errb.String())
	}
	errb.Reset()
	if code := runStats([]string{"-format", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("stats -format=bogus exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") || !strings.Contains(errb.String(), "Usage") {
		t.Errorf("stats error shape: %s", errb.String())
	}
}

func TestUnknownAppAndMethodExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runTrace([]string{"-app", "nope"}, &out, &errb); code != 2 {
		t.Errorf("trace -app=nope exited %d, want 2", code)
	}
	if code := runStats([]string{"-method", "nope"}, &out, &errb); code != 2 {
		t.Errorf("stats -method=nope exited %d, want 2", code)
	}
}
