package metrics

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func env(pairs ...interface{}) map[string]float64 {
	m := make(map[string]float64)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return m
}

// Each built-in against a value worked by hand from its Expr. The
// inputs are chosen so every quotient is exact in binary, so the rows
// compare with ==.
func TestBuiltinKnownAnswers(t *testing.T) {
	cases := []struct {
		metric string
		env    map[string]float64
		want   float64
	}{
		// 300 / 200
		{"cpi", env("cycles", 300.0, "instructions", 200.0), 1.5},
		// 200 / 800
		{"ipc", env("instructions", 200.0, "cycles", 800.0), 0.25},
		// 15 / 120
		{"kernel_share", env("cycles:k", 15.0, "cycles:uk", 120.0), 0.125},
		// 12 / 96
		{"branch_miss_rate", env("branch-miss", 12.0, "branches", 96.0), 0.125},
		// 10 / 40
		{"l1d_miss_rate", env("l1d-miss", 10.0, "loads", 40.0), 0.25},
		// 5 / 40
		{"llc_miss_rate", env("llc-miss", 5.0, "loads", 40.0), 0.125},
		// 6 / (40 + 8) = 6 / 48
		{"dtlb_miss_rate", env("dtlb-miss", 6.0, "loads", 40.0, "stores", 8.0), 0.125},
		// 3 / (40 + 8) = 3 / 48
		{"dtlb_walk_rate", env("dtlb-walk", 3.0, "loads", 40.0, "stores", 8.0), 0.0625},
		// min(600 / 800, 1) = min(0.75, 1)
		{"tma_retiring", env("instructions", 600.0, "cycles", 800.0), 0.75},
		// min(900 / 600, 1) = min(1.5, 1): IPC above the scalar roof caps at 1
		{"tma_retiring", env("instructions", 900.0, "cycles", 600.0), 1},
		// min(15 * 8 / 960, 1) = min(120 / 960, 1) = min(0.125, 1)
		{"tma_frontend", env("branch-miss", 8.0, "cycles", 960.0), 0.125},
		// min(15 * 100 / 960, 1) = min(1500 / 960, 1) = min(1.5625, 1)
		{"tma_frontend", env("branch-miss", 100.0, "cycles", 960.0), 1},
		// max(1 - 480 / 960 - 15 * 16 / 960, 0) = max(1 - 0.5 - 0.25, 0)
		{"tma_backend", env("instructions", 480.0, "cycles", 960.0, "branch-miss", 16.0), 0.25},
		// max(1 - 960 / 960 - 15 * 16 / 960, 0) = max(0 - 0.25, 0):
		// retiring and frontend over-fill the cycles, backend floors at 0
		{"tma_backend", env("instructions", 960.0, "cycles", 960.0, "branch-miss", 16.0), 0},
	}
	covered := make(map[string]bool)
	for _, c := range cases {
		covered[c.metric] = true
		got, err := Lookup(c.metric).Eval(c.env)
		if err != nil {
			t.Errorf("%s over %v: %v", c.metric, c.env, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s over %v = %v, want %v", c.metric, c.env, got, c.want)
		}
	}
	for i := range Builtin {
		if !covered[Builtin[i].Name] {
			t.Errorf("builtin %q has no known-answer row", Builtin[i].Name)
		}
	}
}

// Def.Eval's division policy: a rate over nothing is 0, for every
// division, so min(ipc, 1) over zero cycles reads 0, not 1. Non-finite
// results collapse to 0 too.
func TestExprDivByZeroPolicy(t *testing.T) {
	cases := []struct {
		metric string
		env    map[string]float64
		want   float64
	}{
		{"cpi", env("cycles", 5.0, "instructions", 0.0), 0},
		{"ipc", env("instructions", 5.0, "cycles", 0.0), 0},
		{"kernel_share", env("cycles:k", 5.0, "cycles:uk", 0.0), 0},
		{"branch_miss_rate", env("branch-miss", 5.0, "branches", 0.0), 0},
		{"l1d_miss_rate", env("l1d-miss", 5.0, "loads", 0.0), 0},
		{"llc_miss_rate", env("llc-miss", 5.0, "loads", 0.0), 0},
		{"dtlb_miss_rate", env("dtlb-miss", 5.0, "loads", 0.0, "stores", 0.0), 0},
		// the denominator is the sum: 5 / (2 + -2)
		{"dtlb_walk_rate", env("dtlb-walk", 5.0, "loads", 2.0, "stores", -2.0), 0},
		// min(0, 1), not min(5 / 0 = Inf, 1) = 1
		{"tma_retiring", env("instructions", 5.0, "cycles", 0.0), 0},
		{"tma_frontend", env("branch-miss", 5.0, "cycles", 0.0), 0},
		// max(1 - 0 - 0, 0): both divisions read 0, leaving the 1
		{"tma_backend", env("instructions", 5.0, "cycles", 0.0, "branch-miss", 5.0), 1},
		// +Inf / 2 = +Inf collapses to 0
		{"cpi", env("cycles", math.Inf(1), "instructions", 2.0), 0},
		// NaN / 2 = NaN collapses to 0
		{"ipc", env("instructions", math.NaN(), "cycles", 2.0), 0},
		// max(1 - Inf - -Inf, 0) = max(NaN, 0) = NaN collapses to 0
		{"tma_backend", env("instructions", math.Inf(1), "cycles", 1.0, "branch-miss", math.Inf(-1)), 0},
	}
	for _, c := range cases {
		got, err := Lookup(c.metric).Eval(c.env)
		if err != nil {
			t.Errorf("%s over %v: %v", c.metric, c.env, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s over %v = %v, want %v", c.metric, c.env, got, c.want)
		}
	}
}

// Def.Eval reports a missing input as an error naming the first input
// missing, in Expr order: a metric never silently reads 0 for an event
// not measured.
func TestExprUnknownEvent(t *testing.T) {
	for i := range Builtin {
		d := &Builtin[i]
		for k, missing := range d.Inputs {
			e := env("bogus-event", 1.0)
			for _, name := range d.Inputs[:k] {
				e[name] = 1
			}
			_, err := d.Eval(e)
			want := fmt.Sprintf("metrics: unknown event %q", missing)
			if err == nil || err.Error() != want {
				t.Errorf("%s without %q: err = %v, want %s", d.Name, missing, err, want)
			}
		}
	}
}

// Each Def's Inputs are the identifiers of its printed Expr, in first
// occurrence order, with '_' read as '-', so the formula a user reads
// and the inputs the code evaluates cannot drift apart.
func TestBuiltinDefsParseAndCover(t *testing.T) {
	ident := regexp.MustCompile(`\b[A-Za-z_][A-Za-z0-9_:]*`)
	seen := make(map[string]bool)
	for i := range Builtin {
		d := &Builtin[i]
		if seen[d.Name] {
			t.Errorf("duplicate builtin %q", d.Name)
		}
		seen[d.Name] = true
		if Lookup(d.Name) != d {
			t.Errorf("Lookup(%q) misses", d.Name)
		}
		var want []string
		for _, id := range ident.FindAllString(d.Expr, -1) {
			id = strings.ReplaceAll(id, "_", "-")
			if id != "min" && id != "max" && !slices.Contains(want, id) {
				want = append(want, id)
			}
		}
		if !slices.Equal(d.Inputs, want) {
			t.Errorf("%s: Inputs %q, want %q from %q", d.Name, d.Inputs, want, d.Expr)
		}
	}
	if Lookup("no_such_metric") != nil {
		t.Error("Lookup of unknown metric returned a def")
	}
}

func TestDefEvalAllocatesNothing(t *testing.T) {
	e := env("cycles", 7.0, "instructions", 5.0, "cycles:k", 2.0, "cycles:uk", 9.0,
		"branch-miss", 1.0, "branches", 4.0, "l1d-miss", 3.0, "llc-miss", 1.0,
		"loads", 6.0, "stores", 2.0, "dtlb-miss", 1.0, "dtlb-walk", 1.0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range Builtin {
			if _, err := Builtin[i].Eval(e); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("evaluating the catalogue allocated %v times, want 0", allocs)
	}
}

func sampleFrames() []Frame {
	return []Frame{
		{Seq: 0, Cycle: 100, TID: 1, Samples: []Sample{
			{Name: "cycles", Value: 90, Enabled: 100, Running: 50},
			{Name: "instructions", Value: 40, Enabled: 100, Running: 50},
		}},
		{Seq: 1, Cycle: 200, TID: 2, Samples: []Sample{
			{Name: "cycles", Value: 180, Enabled: 190, Running: 190},
		}},
		{Seq: 2, Cycle: 300, TID: 1, Final: true, Samples: []Sample{
			{Name: "cycles", Value: 280, Enabled: 290, Running: 150},
			{Name: "instructions", Value: 120, Enabled: 290, Running: 150},
		}},
	}
}

// Golden determinism: render → parse → render must be byte-identical,
// and the golden bytes themselves are pinned so any schema drift is a
// conscious choice.
func TestFrameJSONLGolden(t *testing.T) {
	frames := sampleFrames()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, frames); err != nil {
		t.Fatal(err)
	}
	golden := `{"seq":0,"cycle":100,"tid":1,"samples":[{"name":"cycles","value":90,"enabled":100,"running":50},{"name":"instructions","value":40,"enabled":100,"running":50}]}
{"seq":1,"cycle":200,"tid":2,"samples":[{"name":"cycles","value":180,"enabled":190,"running":190}]}
{"seq":2,"cycle":300,"tid":1,"final":true,"samples":[{"name":"cycles","value":280,"enabled":290,"running":150},{"name":"instructions","value":120,"enabled":290,"running":150}]}
`
	if buf.String() != golden {
		t.Errorf("JSONL render drifted from golden:\n got: %q\nwant: %q", buf.String(), golden)
	}
	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, parsed); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != golden {
		t.Error("render→parse→render not byte-identical")
	}
}

// Merge is canonical: any interleaving of shard streams produces the
// same bytes.
func TestFrameMergeDeterministic(t *testing.T) {
	frames := sampleFrames()
	a := []Frame{frames[0], frames[2]}
	b := []Frame{frames[1]}
	var m1, m2 bytes.Buffer
	if err := WriteJSONL(&m1, Merge(a, b)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&m2, Merge(b, a)); err != nil {
		t.Fatal(err)
	}
	if m1.String() != m2.String() {
		t.Errorf("merge order changed bytes:\n a+b: %q\n b+a: %q", m1.String(), m2.String())
	}
	merged := Merge(b, a)
	for i := 1; i < len(merged); i++ {
		if merged[i].Cycle < merged[i-1].Cycle {
			t.Error("merged frames not cycle-ordered")
		}
	}
}

// Totals: last frame per thread wins, threads sum.
func TestTotals(t *testing.T) {
	totals := Totals(sampleFrames())
	if got := totals["cycles"]; got != 280+180 {
		t.Errorf("cycles total %d, want %d", got, 280+180)
	}
	if got := totals["instructions"]; got != 120 {
		t.Errorf("instructions total %d, want 120", got)
	}
	cpi := Lookup("cpi")
	v, err := cpi.Eval(Env(totals))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(280+180) / 120; v != want {
		t.Errorf("cpi over totals = %v, want %v", v, want)
	}
}
