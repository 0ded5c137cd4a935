package profile_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"limitsim/internal/profile"
)

// The wire round trip report assemblers depend on: WriteJSONL →
// ParseJSONL recovers every finding in rank order with exact integer
// fields, floats within the stream's fixed precision, and the trailing
// self-cost record.
func TestProfileJSONLRoundTrip(t *testing.T) {
	rep := profile.NewReport(collectMySQL(t))
	recs := rep.Records()
	if len(recs) == 0 {
		t.Fatal("profiled run produced no findings")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, self, err := profile.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(recs) {
		t.Fatalf("parsed %d findings, wrote %d", len(parsed), len(recs))
	}
	if self == nil {
		t.Fatal("self-cost record lost in round trip")
	}
	if got, want := self.PairVsBareRatio, rep.Self.Ratio(); math.Abs(got-want) > 0.00005 {
		t.Errorf("self ratio %v, want ~%v", got, want)
	}
	for i, p := range parsed {
		r := recs[i]
		if p.Rank != r.Rank || p.Region != r.Region || p.Kind != r.Kind || p.Class != r.Class ||
			p.Count != r.Count || p.Min != r.Min || p.Max != r.Max {
			t.Errorf("finding %d integer fields drifted:\n got %+v\nwant %+v", i, p, r)
		}
		if len(p.Self) != len(r.Self) {
			t.Fatalf("finding %d self sums %d, want %d", i, len(p.Self), len(r.Self))
		}
		for j := range p.Self {
			if p.Self[j] != r.Self[j] {
				t.Errorf("finding %d self[%d] = %d, want %d", i, j, p.Self[j], r.Self[j])
			}
		}
		// Floats travel at the stream's fixed precision.
		for _, f := range []struct {
			name      string
			got, want float64
			tol       float64
		}{
			{"share", p.Share, r.Share, 0.0000005},
			{"mean_cycles", p.MeanCycles, r.MeanCycles, 0.005},
			{"kernel_share", p.KernelShare, r.KernelShare, 0.0000005},
			{"l1d_per_kc", p.L1DPerKC, r.L1DPerKC, 0.00005},
			{"brmiss_per_kc", p.BrMissPerKC, r.BrMissPerKC, 0.00005},
		} {
			if math.Abs(f.got-f.want) > f.tol {
				t.Errorf("finding %d %s = %v, want ~%v", i, f.name, f.got, f.want)
			}
		}
	}
}

func TestProfileParseJSONLErrors(t *testing.T) {
	// Content after the self-cost record is a torn or concatenated
	// stream, not a valid report.
	bad := `{"profiler_self_cycles":10,"pair_vs_bare_ratio":1.1}
{"rank":1,"region":"r","kind":"lock","class":"contention","share":0.5,"count":1,"self":[1],"min":1,"max":1,"mean_cycles":1.0,"kernel_share":0,"l1d_per_kc":0,"brmiss_per_kc":0}
`
	if _, _, err := profile.ParseJSONL(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "after the self-cost record") {
		t.Errorf("content after self record: err = %v", err)
	}
	if _, _, err := profile.ParseJSONL(strings.NewReader(`{"rank":`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	// A headerless stream (no self record) parses with self == nil.
	only := `{"rank":1,"region":"r","kind":"lock","class":"contention","share":0.5,"count":1,"self":[1],"min":1,"max":1,"mean_cycles":1.0,"kernel_share":0,"l1d_per_kc":0,"brmiss_per_kc":0}`
	recs, self, err := profile.ParseJSONL(strings.NewReader(only))
	if err != nil || len(recs) != 1 || self != nil {
		t.Errorf("findings-only stream: recs=%d self=%v err=%v", len(recs), self, err)
	}
	// A line over 16 MiB is named by its own number, blank lines
	// before it counted.
	long := only + "\n\n\n" + strings.Repeat("x", 17<<20)
	if _, _, err := profile.ParseJSONL(strings.NewReader(long)); err == nil ||
		!strings.Contains(err.Error(), "jsonl line 4: bufio.Scanner: token too long") {
		t.Errorf("over-long line: err = %v, want it named as line 4", err)
	}
}
