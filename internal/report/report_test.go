package report

import (
	"bytes"
	"strings"
	"testing"

	"limitsim/internal/metrics"
	"limitsim/internal/profile"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
)

// buildArtifact assembles one artifact exercising every section type.
func buildArtifact() *Artifact {
	a := New("test artifact", "every section type <&>")
	a.AddFindings("Findings", []profile.FindingRecord{
		{Rank: 1, Region: "lock:<LOCK_kernel>", Kind: "lock", Class: "contention",
			Share: 0.42, Count: 100, Self: []uint64{4200000, 10, 20},
			MeanCycles: 42000, KernelShare: 0.31, L1DPerKC: 1.5, BrMissPerKC: 0.2},
		{Rank: 2, Region: "cs:main", Kind: "critical-section", Class: "compute-bound",
			Share: 0.10, Count: 50, Self: []uint64{1000000}, MeanCycles: 20000},
	}, &profile.SelfCostRecord{SelfCycles: 36.5, PairVsBareRatio: 1.0417})

	reg := telemetry.NewRegistry()
	reg.Counter("kern.syscalls").Add(7)
	reg.Gauge("pool.live").Set(3)
	reg.Histogram("region.cycles", []uint64{10, 100, 1000}).Observe(42)
	a.AddRegistry("Telemetry", reg)

	a.AddSeries("Series", []metrics.WindowRow{
		{Window: 0, Start: 0, End: 100, Key: "tenant0",
			Inputs: map[string]int64{"cycles": 90}, Metrics: map[string]float64{"cpi": 1.5, "ipc": 0.66}},
		{Window: 0, Start: 0, End: 100, Key: "tenant1",
			Inputs: map[string]int64{"cycles": 80}, Metrics: map[string]float64{"cpi": 2.0, "ipc": 0.5}},
		{Window: 1, Start: 100, End: 200, Partial: true, Key: "tenant0",
			Inputs: map[string]int64{"cycles": -5}, Metrics: map[string]float64{"cpi": 0, "ipc": 0}},
		{Window: 1, Start: 100, End: 200, Partial: true, Key: "tenant1",
			Inputs: map[string]int64{"cycles": 10}, Metrics: map[string]float64{"cpi": 1.0, "ipc": 1.0}},
	})

	a.AddFlame("Flame", []trace.Span{
		{Name: "thread", PID: 1, TID: 1, StartCycle: 0, DurCycles: 1000},
		{Name: "lock:<L>", PID: 1, TID: 1, StartCycle: 100, DurCycles: 400},
		{Name: "inner", PID: 1, TID: 1, StartCycle: 150, DurCycles: 100},
		{Name: "thread", PID: 1, TID: 2, StartCycle: 0, DurCycles: 800},
	})

	a.AddPre("Raw", "col1  col2\n1     2\n")
	a.AddKV("About", [][2]string{{"workload", "forkjoin"}, {"cores", "4"}})
	return a
}

func render(t *testing.T, a *Artifact) string {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The artifact contract: same inputs, same bytes — across repeated
// builds and renders.
func TestRenderByteDeterministic(t *testing.T) {
	a := render(t, buildArtifact())
	b := render(t, buildArtifact())
	if a != b {
		t.Error("two renders of the same inputs differ")
	}
	if a == "" {
		t.Fatal("empty render")
	}
}

// Self-contained: no external fetches of any kind may appear in the
// document — the same check CI applies to generated reports.
func TestRenderSelfContained(t *testing.T) {
	out := render(t, buildArtifact())
	for _, banned := range []string{"http://", "https://", "url(", "@import", "<script", "<link", "srcset"} {
		if strings.Contains(out, banned) {
			t.Errorf("artifact contains %q — not self-contained", banned)
		}
	}
}

// Structure: doctype, balanced section tags, one nav anchor per
// section pointing at a matching id.
func TestRenderStructure(t *testing.T) {
	art := buildArtifact()
	out := render(t, art)
	if !strings.HasPrefix(out, "<!DOCTYPE html>\n") {
		t.Error("missing doctype")
	}
	for _, pair := range [][2]string{
		{"<html", "</html>"}, {"<head>", "</head>"}, {"<body>", "</body>"},
		{"<section", "</section>"}, {"<table>", "</table>"}, {"<svg", "</svg>"},
	} {
		if strings.Count(out, pair[0]) != strings.Count(out, pair[1]) {
			t.Errorf("unbalanced %s: %d open vs %d close",
				pair[0], strings.Count(out, pair[0]), strings.Count(out, pair[1]))
		}
	}
	if n := strings.Count(out, "<section"); n != art.Sections() {
		t.Errorf("%d section elements for %d sections", n, art.Sections())
	}
	for i := 1; i <= art.Sections(); i++ {
		anchor := `<a href="#s` + string(rune('0'+i)) + `">`
		id := `<section id="s` + string(rune('0'+i)) + `">`
		if !strings.Contains(out, anchor) {
			t.Errorf("missing nav anchor %s", anchor)
		}
		if !strings.Contains(out, id) {
			t.Errorf("missing section %s", id)
		}
	}
}

// Untrusted strings (region names, titles, table cells) must be
// escaped wherever they land.
func TestRenderEscapesUserText(t *testing.T) {
	a := New(`<script>alert("x")</script>`, `sub & title`)
	a.AddTable("T", []string{"<th>"}, [][]string{{`<img src=x>`}})
	a.AddPre("P", "<pre-injected>")
	out := render(t, a)
	for _, banned := range []string{"<script>", "<img", "<pre-injected>", "<th><th>"} {
		if strings.Contains(out, banned) {
			t.Errorf("unescaped user text %q leaked into HTML", banned)
		}
	}
	if !strings.Contains(out, "&lt;script&gt;") {
		t.Error("title not visibly escaped")
	}
}

// The findings table carries the ranked rows and the self-cost line;
// the share bar widths are fixed-point deterministic.
func TestAddFindings(t *testing.T) {
	out := render(t, buildArtifact())
	for _, want := range []string{
		"lock:&lt;LOCK_kernel&gt;", "contention", "42.00%",
		`<span class="bar" style="width:50px">`, // 0.42*120 = 50.4 → 50
		"profiler self-cost: 36.50 cycles", "1.0417x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("findings section lacks %q", want)
		}
	}
}

// The series section draws one chart per metric with one polyline per
// key, plus the compact table with the partial mark.
func TestAddSeries(t *testing.T) {
	out := render(t, buildArtifact())
	if got := strings.Count(out, "<h3>"); got != 2 {
		t.Errorf("%d metric charts, want 2 (cpi, ipc)", got)
	}
	if got := strings.Count(out, "<polyline"); got != 4 {
		t.Errorf("%d polylines, want 4 (2 metrics x 2 keys)", got)
	}
	for _, want := range []string{"tenant0", "tenant1", "100..200 (partial)", "class=\"legend\""} {
		if !strings.Contains(out, want) {
			t.Errorf("series section lacks %q", want)
		}
	}

	// Negative values force the dashed zero line into the chart.
	var b strings.Builder
	lineChart(&b, []chartSeries{{Label: "all", Values: []float64{-1, 2, 0.5}}})
	if !strings.Contains(b.String(), "stroke-dasharray") {
		t.Error("chart spanning zero lacks the dashed zero line")
	}

	empty := New("e", "")
	empty.AddSeries("S", nil)
	if !strings.Contains(render(t, empty), "no windows") {
		t.Error("empty series lacks placeholder")
	}
}

// The charts read a window a key has no row for as 0, and a later row
// for the same key and window overwrites only the metrics it carries:
// rows with a gap and a partial repeat chart exactly as the rows
// written out in full.
func TestAddSeriesGapsAndRepeats(t *testing.T) {
	row := func(w int, key string, m map[string]float64) metrics.WindowRow {
		return metrics.WindowRow{Window: w, Start: uint64(w) * 10, End: uint64(w+1) * 10, Key: key, Metrics: m}
	}
	sparse := []metrics.WindowRow{
		row(0, "a", map[string]float64{"m": 1, "n": 2}),
		row(0, "b", map[string]float64{"m": 3, "n": 4}),
		row(1, "a", map[string]float64{"m": 5, "n": 6}),
		row(2, "a", map[string]float64{"m": 7, "n": 8}),
		row(2, "b", map[string]float64{"m": 9}),
		row(1, "a", map[string]float64{"m": -5}),
	}
	full := []metrics.WindowRow{
		row(0, "a", map[string]float64{"m": 1, "n": 2}),
		row(0, "b", map[string]float64{"m": 3, "n": 4}),
		row(1, "a", map[string]float64{"m": -5, "n": 6}),
		row(1, "b", map[string]float64{"m": 0, "n": 0}),
		row(2, "a", map[string]float64{"m": 7, "n": 8}),
		row(2, "b", map[string]float64{"m": 9, "n": 0}),
	}
	charts := func(rows []metrics.WindowRow) string {
		a := New("t", "")
		a.AddSeries("S", rows)
		out := render(t, a)
		return out[:strings.Index(out, "<table>")]
	}
	if got, want := charts(sparse), charts(full); got != want {
		t.Errorf("charts of sparse rows differ from the full rows':\n%s\nwant\n%s", got, want)
	}
}

// The registry section renders counters, gauges and histograms; an
// empty registry gets an explicit placeholder.
func TestAddRegistry(t *testing.T) {
	out := render(t, buildArtifact())
	for _, want := range []string{"kern.syscalls", "pool.live", "region.cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("registry section lacks %q", want)
		}
	}
	empty := New("e", "")
	empty.AddRegistry("R", telemetry.NewRegistry())
	if !strings.Contains(render(t, empty), "empty registry") {
		t.Error("empty registry lacks placeholder")
	}
}

// The flame view nests spans by containment per (pid,tid) track and
// titles every box with its name and cycle bounds.
func TestAddFlame(t *testing.T) {
	out := render(t, buildArtifact())
	if got := strings.Count(out, "<rect"); got < 4 {
		t.Errorf("%d flame rects, want >= 4", got)
	}
	for _, want := range []string{"lock:&lt;L&gt;", "<title>"} {
		if !strings.Contains(out, want) {
			t.Errorf("flame section lacks %q", want)
		}
	}
	// Span input order must not change the SVG.
	spans := []trace.Span{
		{Name: "a", PID: 1, TID: 1, StartCycle: 0, DurCycles: 100},
		{Name: "b", PID: 1, TID: 1, StartCycle: 10, DurCycles: 50},
	}
	var b1, b2 strings.Builder
	flameSVG(&b1, spans)
	flameSVG(&b2, []trace.Span{spans[1], spans[0]})
	if b1.String() != b2.String() {
		t.Error("span input order changed the flame SVG")
	}
}
