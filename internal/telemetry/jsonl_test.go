package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// sampleRegistry builds a registry with every metric kind populated,
// including a negative gauge level.
func sampleRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("fleet.results")
	c.Add(41)
	g := r.Gauge("fleet.inflight")
	g.Add(5)
	g.Add(-7) // value -2, peak 5
	h := r.Histogram("fleet.cost", []uint64{10, 100, 1000})
	h.Observe(3)
	h.Observe(45)
	h.Observe(99999)
	return r
}

// TestParseJSONLRoundTrip: WriteJSONL → ParseJSONL reproduces the
// registry exactly — byte-identical re-render and re-emit, and
// mergeable with a same-schema registry.
func TestParseJSONLRoundTrip(t *testing.T) {
	r := sampleRegistry()
	var out bytes.Buffer
	if err := r.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	r.Render(&a)
	got.Render(&b)
	if a.String() != b.String() {
		t.Errorf("re-render differs:\n%s\nvs\n%s", a.String(), b.String())
	}
	var re bytes.Buffer
	if err := got.WriteJSONL(&re); err != nil {
		t.Fatal(err)
	}
	if re.String() != out.String() {
		t.Errorf("re-emit differs:\n%q\nvs\n%q", re.String(), out.String())
	}
	// Merging two parsed copies doubles counters and histogram counts.
	second, err := ParseJSONL(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Merge(second); err != nil {
		t.Fatal(err)
	}
	if v := got.LookupCounter("fleet.results").Value(); v != 82 {
		t.Errorf("merged counter = %d, want 82", v)
	}
	if h := got.LookupHistogram("fleet.cost"); h.Count() != 6 || h.Sum() != 2*(3+45+99999) {
		t.Errorf("merged histogram count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestParseJSONLRejectsMalformed: corrupt lines fail loudly with the
// line number, never parse partially.
func TestParseJSONLRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad json", "{nope}", "line 1"},
		{"unknown type", `{"type":"sparkline","name":"x","value":1}`, "unknown metric type"},
		{"missing name", `{"type":"counter","value":1}`, "missing metric name"},
		{"missing value", `{"type":"counter","name":"x"}`, "missing value"},
		{"negative counter", `{"type":"counter","name":"x","value":-4}`, "value"},
		{"dup name", `{"type":"counter","name":"x","value":1}` + "\n" + `{"type":"gauge","name":"x","value":1,"peak":1}`, "duplicate metric"},
		{"count mismatch", `{"type":"histogram","name":"h","count":9,"sum":1,"min":1,"max":1,"bounds":[10],"counts":[1,0]}`, "sum to 1, count says 9"},
		{"bad bucket shape", `{"type":"histogram","name":"h","count":1,"sum":1,"min":1,"max":1,"bounds":[10,20],"counts":[1]}`, "want bounds+1"},
		{"descending bounds", `{"type":"histogram","name":"h","count":0,"sum":0,"min":0,"max":0,"bounds":[5,3],"counts":[0,0,0]}`, `histogram "h" bounds not ascending at 1`},
		{"equal bounds", `{"type":"histogram","name":"h","count":0,"sum":0,"min":0,"max":0,"bounds":[1,1],"counts":[0,0,0]}`, `histogram "h" bounds not ascending at 1`},
		{"line over 16 MiB", `{"type":"counter","name":"x","value":1}` + "\n\n\n" + strings.Repeat("x", 17<<20), "jsonl line 4: bufio.Scanner: token too long"},
	}
	for _, c := range cases {
		if _, err := ParseJSONL(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestParsedRegistriesSchemaDrift: two files with drifted schemas fail
// the merge with the usual typed *SchemaError naming the metric.
func TestParsedRegistriesSchemaDrift(t *testing.T) {
	a, err := ParseJSONL(strings.NewReader(`{"type":"counter","name":"kern.folds","value":3}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseJSONL(strings.NewReader(`{"type":"counter","name":"kern.rewinds","value":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var se *SchemaError
	if err := a.Merge(b); !errors.As(err, &se) || se.Name != "kern.rewinds" {
		t.Errorf("merge err = %v, want *SchemaError naming kern.rewinds", err)
	}
}

// FuzzParseJSONL: any input either fails with an error or parses to a
// registry whose WriteJSONL output parses back and re-emits the same
// bytes. It never panics.
func FuzzParseJSONL(f *testing.F) {
	f.Add([]byte(`{"type":"counter","name":"kern.syscalls","value":120}`))
	f.Add([]byte(`{"type":"gauge","name":"pmu.slots.occupancy","value":-1,"peak":4}`))
	f.Add([]byte(`{"type":"histogram","name":"kern.exit.cycles","count":3,"sum":160,"min":10,"max":100,"bounds":[50,100],"counts":[1,2,0]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ParseJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := r.WriteJSONL(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of %q: %v", first.Bytes(), err)
		}
		var second bytes.Buffer
		if err := back.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-emit differs:\n%q\nvs\n%q", first.Bytes(), second.Bytes())
		}
	})
}
