package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"limitsim/internal/trace"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		samples []float64
		pct     int
		want    float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{0, 10}, 90, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{[]float64{1, 2, 3}, 100, 3},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.pct); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %d) = %v, want %v", c.samples, c.pct, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestTailCount pins the rule for reporting a percentile: at least ten
// samples must lie beyond it, so a p90 needs 92 samples.
func TestTailCount(t *testing.T) {
	cases := []struct{ n, pct, want int }{
		{0, 90, 0},
		{1, 50, 0},
		{16, 90, 2},
		{91, 90, 9},
		{92, 90, 10},
		{98, 90, 10},
		{100, 90, 10},
		{110, 90, 11},
		{21, 50, 10},
	}
	for _, c := range cases {
		if got := tailCount(c.n, c.pct); got != c.want {
			t.Errorf("tailCount(%d, %d) = %d, want %d", c.n, c.pct, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ t, calib, want float64 }{
		{10, calibRefNsPerOp, 10},       // reference host: unchanged
		{10, 2 * calibRefNsPerOp, 2.5},  // calibration twice as slow
		{10, calibRefNsPerOp / 2.0, 40}, // calibration twice as fast
		{63.2, 3000, 63.2 * (2345.0 / 3000) * (2345.0 / 3000)},
	}
	for _, c := range cases {
		if got := normalize(c.t, c.calib); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("normalize(%v, %v) = %v, want %v", c.t, c.calib, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "iteration", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50}, // overlaps a (another worker)
		{name: "c", parent: 0, start: 60, end: 70},
		{name: "d", parent: 3, start: 60, end: 65},
	}
	want := []int64{100 - 40 - 10, 20, 30, 5, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := roots(spans); !reflect.DeepEqual(got, []int{0, 0, 0, 0, 0}) {
		t.Errorf("roots = %v", got)
	}
}

// TestSpansNest traces two iterations of every workload and checks
// that each span lies inside its parent, that self times are never
// negative, and that the spans survive a Chrome trace round trip.
func TestSpansNest(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			w, err := s.setup(0)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			for i := 0; i < 2; i++ {
				root := tr.begin("iteration")
				err := w.iterate(tr)
				tr.end(root)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.check(); err != nil {
					t.Fatal(err)
				}
			}
			for i, sp := range tr.spans {
				if sp.end < sp.start {
					t.Errorf("span %d %s ends before it starts", i, sp.name)
				}
				if sp.parent < 0 {
					if sp.name != "iteration" {
						t.Errorf("root span %d is %s", i, sp.name)
					}
					continue
				}
				p := tr.spans[sp.parent]
				if sp.start < p.start || sp.end > p.end {
					t.Errorf("span %s [%d,%d] escapes parent %s [%d,%d]", sp.name, sp.start, sp.end, p.name, p.start, p.end)
				}
				if _, ok := spanShares[sp.name]; !ok && sp.name != "runner.Run" {
					t.Errorf("span %s feeds no share metric", sp.name)
				}
			}
			for i, d := range selfTimes(tr.spans) {
				if d < 0 {
					t.Errorf("span %d %s has negative self time %d", i, tr.spans[i].name, d)
				}
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeTrace(path, tr.spans); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			back, err := trace.ParseChromeSpans(f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, chromeSpans(tr.spans)) {
				t.Error("spans changed across the Chrome trace round trip")
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestWorkloadsPrintTheirMetrics runs every workload for the shortest
// run in both modes (one reference iteration per input, then minIters
// per pass) and checks the printed result against BENCHMARK.json.
func TestWorkloadsPrintTheirMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, specNames)
	}
	listed := [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer}
	for mode, defs := range [][]metricDef{endToEnd, perLayer} {
		if len(defs) != len(listed[mode]) {
			t.Fatalf("mode %d: BENCHMARK.json lists %d metrics, program %d", mode, len(listed[mode]), len(defs))
		}
		for i, d := range defs {
			if listed[mode][i].Name != d.name || listed[mode][i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %v, program %v", i, listed[mode][i], d)
			}
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
			}
		}
	}

	for _, name := range specNames {
		for _, mode := range []string{"0", "1"} {
			t.Run(name+"/trace"+mode, func(t *testing.T) {
				args := []string{"--workload", name, "--seconds", "0.001", "--trace", mode}
				tracePath := filepath.Join(t.TempDir(), "spans.json")
				if mode == "1" {
					args = append(args, "--trace-file", tracePath)
				}
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				passes := 1
				if mode == "1" {
					passes = 2 // untraced, then traced
				}
				if want := inputVariants + passes*minIters; !res.Correct || res.Failed != 0 || res.Attempted != want {
					t.Errorf("correct=%v attempted=%d failed=%d, want true/%d/0", res.Correct, res.Attempted, res.Failed, want)
				}
				defs := listed[0]
				if mode == "1" {
					defs = listed[1]
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s printed as %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if mode == "0" {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				f, err := os.Open(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				spans, err := trace.ParseChromeSpans(f)
				if err != nil {
					t.Fatal(err)
				}
				roots := 0
				for _, s := range spans {
					if s.Name == "iteration" {
						roots++
					}
				}
				if roots != minIters {
					t.Errorf("trace file has %d iteration spans, want %d", roots, minIters)
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "oltp-mysql", "--trace", "2"},
		{"--workload", "oltp-mysql", "--seconds", "0"},
		{"--workload", "oltp-mysql", "--trace-file", "x.json"},
		{"--workload", "oltp-mysql", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, stdout.String())
		}
	}
}
