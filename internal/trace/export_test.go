package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"limitsim/internal/trace"
)

func sampleEvents() []trace.Event {
	return []trace.Event{
		{Cycle: 0, Core: 0, TID: 1, Kind: trace.Spawn, Arg: 0},
		{Cycle: 1234, Core: 0, TID: 1, Kind: trace.SwitchIn, Arg: 0},
		{Cycle: 5678, Core: 1, TID: 2, Kind: trace.Syscall, Arg: 17},
		{Cycle: 9999, Core: 1, TID: 2, Kind: trace.PMI, Arg: 0b101},
		{Cycle: 123_456_789, Core: 0, TID: 1, Kind: trace.Exit, Arg: 1},
	}
}

// exported is one event as a JSON consumer of either export form sees
// it: the kind by name, cycle and arg exact.
type exported struct {
	Cycle     uint64
	Core, TID int
	Kind      string
	Arg       uint64
}

func exportedOf(evs []trace.Event) []exported {
	out := make([]exported, len(evs))
	for i, e := range evs {
		out[i] = exported{Cycle: e.Cycle, Core: e.Core, TID: e.TID, Kind: e.Kind.String(), Arg: e.Arg}
	}
	return out
}

// decodeJSONL decodes a WriteJSONL stream with encoding/json.
func decodeJSONL(t *testing.T, data []byte) []exported {
	t.Helper()
	var out []exported
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e exported
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// decodeChrome decodes a WriteChrome document with encoding/json,
// taking cycle and arg from args rather than the rounded ts.
func decodeChrome(t *testing.T, data []byte) []exported {
	t.Helper()
	var doc struct {
		TraceEvents *[]struct {
			Name     string
			PID, TID int
			Args     struct{ Cycle, Arg uint64 }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("document lacks traceEvents")
	}
	out := []exported{}
	for _, e := range *doc.TraceEvents {
		out = append(out, exported{Cycle: e.Args.Cycle, Core: e.PID, TID: e.TID, Kind: e.Name, Arg: e.Args.Arg})
	}
	return out
}

func checkExported(t *testing.T, got, want []exported) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	checkExported(t, decodeJSONL(t, buf.Bytes()), exportedOf(evs))
}

func TestChromeRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, evs, 0); err != nil {
		t.Fatal(err)
	}
	checkExported(t, decodeChrome(t, buf.Bytes()), exportedOf(evs))
}

func TestChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	checkExported(t, decodeChrome(t, buf.Bytes()), nil)
}

func TestWriteDeterministic(t *testing.T) {
	evs := sampleEvents()
	var a, b bytes.Buffer
	if err := trace.WriteChrome(&a, evs, 0); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&b, evs, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("chrome export not byte-deterministic")
	}
	a.Reset()
	b.Reset()
	if err := trace.WriteJSONL(&a, evs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&b, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("jsonl export not byte-deterministic")
	}
}

func sampleSpans() []trace.Span {
	return []trace.Span{
		{Name: "txn", PID: 1, TID: 1, StartCycle: 0, DurCycles: 10_000},
		{Name: "txn/parse", PID: 1, TID: 1, StartCycle: 0, DurCycles: 2_500},
		{Name: "txn/table.cs", PID: 1, TID: 1, StartCycle: 2_500, DurCycles: 6_000},
		{Name: "request", PID: 2, TID: 3, StartCycle: 500, DurCycles: 123_456},
	}
}

func TestChromeSpansRoundTrip(t *testing.T) {
	spans := sampleSpans()
	var buf bytes.Buffer
	if err := trace.WriteChromeSpans(&buf, spans, 0); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("span export lacks traceEvents array")
	}
	back, err := trace.ParseChromeSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round trip returned %d spans, want %d", len(back), len(spans))
	}
	for i := range spans {
		if back[i] != spans[i] {
			t.Errorf("span %d: %+v != %+v", i, back[i], spans[i])
		}
	}
}

func TestChromeSpansDeterministicAndEmpty(t *testing.T) {
	var a, b bytes.Buffer
	if err := trace.WriteChromeSpans(&a, sampleSpans(), 3000); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChromeSpans(&b, sampleSpans(), 3000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("span export not byte-deterministic")
	}
	a.Reset()
	if err := trace.WriteChromeSpans(&a, nil, 0); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ParseChromeSpans(bytes.NewReader(a.Bytes()))
	if err != nil || len(back) != 0 {
		t.Fatalf("empty span round trip: %v %v", back, err)
	}
}

func TestCountKindMatchesEvents(t *testing.T) {
	b := trace.NewBuffer(4)
	for i := 0; i < 7; i++ {
		k := trace.Syscall
		if i%2 == 0 {
			k = trace.PMI
		}
		b.Append(trace.Event{Cycle: uint64(i), Kind: k})
	}
	for _, k := range []trace.Kind{trace.Syscall, trace.PMI, trace.Exit} {
		want := 0
		for _, e := range b.Events() {
			if e.Kind == k {
				want++
			}
		}
		if got := b.CountKind(k); got != want {
			t.Errorf("CountKind(%v) = %d, want %d", k, got, want)
		}
	}
}
