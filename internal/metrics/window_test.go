package metrics

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"limitsim/internal/telemetry"
)

// windowFrames is a hand-built stream with a deliberate non-monotonic
// dip (thread 1's cycles estimate revises downward between its last two
// frames) so the tests pin the signed-delta reconciliation guarantee.
// With window=100: t1 hits windows 0, 2, 3; t2 hits window 1 only.
func windowFrames() []Frame {
	return []Frame{
		{Seq: 0, Cycle: 50, TID: 1, Samples: []Sample{
			{Name: "cycles", Value: 10, Enabled: 50, Running: 25},
			{Name: "instructions", Value: 5, Enabled: 50, Running: 25},
		}},
		{Seq: 1, Cycle: 120, TID: 2, Samples: []Sample{
			{Name: "cycles", Value: 40, Enabled: 120, Running: 120},
		}},
		{Seq: 2, Cycle: 250, TID: 1, Samples: []Sample{
			{Name: "cycles", Value: 100, Enabled: 250, Running: 125},
			{Name: "instructions", Value: 50, Enabled: 250, Running: 125},
		}},
		{Seq: 3, Cycle: 320, TID: 1, Final: true, Samples: []Sample{
			{Name: "cycles", Value: 90, Enabled: 320, Running: 160}, // dip: scaled estimates are non-monotonic
			{Name: "instructions", Value: 60, Enabled: 320, Running: 160},
		}},
	}
}

func TestWindowedSpansAndPartialTail(t *testing.T) {
	ss, err := Windowed(windowFrames(), 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(ss.Windows))
	}
	for w, win := range ss.Windows {
		if win.Index != w || win.Start != uint64(w)*100 || win.End != uint64(w+1)*100 {
			t.Errorf("window %d span = [%d,%d) index %d", w, win.Start, win.End, win.Index)
		}
		if wantPartial := w == 3; win.Partial != wantPartial {
			t.Errorf("window %d partial = %v, want %v", w, win.Partial, wantPartial)
		}
	}
	if len(ss.Keys) != 1 || ss.Keys[0] != 0 {
		t.Errorf("SplitNone keys = %v, want [0]", ss.Keys)
	}
	if want := []string{"cycles", "instructions"}; len(ss.Names) != 2 || ss.Names[0] != want[0] || ss.Names[1] != want[1] {
		t.Errorf("names = %v, want %v", ss.Names, want)
	}
}

// A stream whose last frame lands exactly on a window's final cycle
// leaves the tail window complete, not partial.
func TestWindowedExactBoundaryNotPartial(t *testing.T) {
	frames := []Frame{{Seq: 0, Cycle: 99, TID: 1, Samples: []Sample{{Name: "cycles", Value: 7}}}}
	ss, err := Windowed(frames, 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Windows) != 1 || ss.Windows[0].Partial {
		t.Errorf("windows = %+v, want one complete window", ss.Windows)
	}
}

func TestWindowedSignedDeltas(t *testing.T) {
	ss, err := Windowed(windowFrames(), 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	want := []map[string]int64{
		{"cycles": 10, "instructions": 5},
		{"cycles": 40},
		{"cycles": 90, "instructions": 45},
		{"cycles": -10, "instructions": 10}, // the dip stays signed
	}
	for w, wd := range want {
		got := ss.Delta(0, w)
		for name, v := range wd {
			if got[name] != v {
				t.Errorf("window %d delta[%s] = %d, want %d", w, name, got[name], v)
			}
		}
	}
	if ss.Delta(0, 99) != nil || ss.Delta(42, 0) != nil {
		t.Error("out-of-range Delta should be nil")
	}
}

// Reconciliation: the signed window deltas telescope, so summing every
// window (across all split keys) reproduces the end-of-run Totals
// exactly — for every event, under every split.
func TestWindowedReconcilesWithTotals(t *testing.T) {
	frames := windowFrames()
	totals := Totals(frames)
	for _, split := range []Split{SplitNone, SplitTenant, SplitThread} {
		ss, err := Windowed(frames, 100, split)
		if err != nil {
			t.Fatal(err)
		}
		sums := make(map[string]int64)
		for _, key := range ss.Keys {
			for w := range ss.Windows {
				for name, d := range ss.Delta(key, w) {
					sums[name] += d
				}
			}
		}
		for name, total := range totals {
			if sums[name] != int64(total) {
				t.Errorf("split=%s: windowed sum[%s] = %d, Totals = %d", split, name, sums[name], total)
			}
		}
	}
}

func TestWindowedSplitThreadAndTenant(t *testing.T) {
	frames := windowFrames()
	t0, t1 := 0, 1
	frames[0].Tenant = &t0
	frames[2].Tenant = &t0
	frames[3].Tenant = &t0
	frames[1].Tenant = &t1

	ss, err := Windowed(frames, 100, SplitThread)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Keys) != 2 || ss.Keys[0] != 1 || ss.Keys[1] != 2 {
		t.Fatalf("thread keys = %v, want [1 2]", ss.Keys)
	}
	if d := ss.Delta(2, 1); d["cycles"] != 40 {
		t.Errorf("tid2 window1 cycles = %d, want 40", d["cycles"])
	}
	if d := ss.Delta(2, 0); d != nil {
		t.Errorf("tid2 never ran in window 0, delta = %v", d)
	}

	st, err := Windowed(frames, 100, SplitTenant)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Keys) != 2 || st.Keys[0] != 0 || st.Keys[1] != 1 {
		t.Fatalf("tenant keys = %v, want [0 1]", st.Keys)
	}
	if d := st.Delta(1, 1); d["cycles"] != 40 {
		t.Errorf("tenant1 window1 cycles = %d, want 40", d["cycles"])
	}
	if d := st.Delta(0, 3); d["cycles"] != -10 {
		t.Errorf("tenant0 window3 cycles = %d, want -10", d["cycles"])
	}
}

func TestWindowedZeroWindowRejected(t *testing.T) {
	if _, err := Windowed(windowFrames(), 0, SplitNone); err == nil {
		t.Error("window=0 accepted, want error")
	}
}

// A stream that needs more windows than a series can hold, or whose
// last window ends past cycle 2^64-1, is an error naming the cycle and
// the window: not a makeslice panic, and not a span whose end wraps to
// 0. A window count that is huge but fits is not tried here: it really
// allocates.
func TestWindowedRejectsWindowsItCannotIndexOrBound(t *testing.T) {
	for _, c := range []struct {
		cycle, window uint64
		split         Split
	}{
		{9223372036854775813, 1, SplitNone},  // the window count overflows int
		{math.MaxUint64, 1, SplitNone},       // and so would its index + 1
		{1 << 62, 1, SplitNone},              // fits int, not a slice
		{1 << 62, 1, SplitThread},            // keys × windows overflows int
		{math.MaxUint64, 1 << 62, SplitNone}, // window 3 ends at 2^64
		{math.MaxUint64, 1 << 63, SplitNone}, // window 1 ends at 2^64
		{math.MaxUint64, math.MaxUint64 - 1, SplitNone},
	} {
		frames := []Frame{
			{Seq: 0, Cycle: 0, TID: 1, Samples: []Sample{{Name: "cycles", Value: 1}}},
			{Seq: 1, Cycle: c.cycle, TID: 2, Samples: []Sample{{Name: "cycles", Value: 2}}},
		}
		ss, err := Windowed(frames, c.window, c.split)
		if err == nil {
			t.Errorf("cycle %d, window %d: accepted with %d windows", c.cycle, c.window, len(ss.Windows))
			continue
		}
		for _, want := range []string{fmt.Sprint(c.cycle), fmt.Sprintf("%d-cycle", c.window)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("cycle %d, window %d: error %q does not name %s", c.cycle, c.window, err, want)
			}
		}
	}
	// The largest spans that still fit: one window ending at 2^64-1,
	// and three windows the last of which ends there.
	for _, c := range []struct{ cycle, window, end uint64 }{
		{math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64},
		{math.MaxUint64 - 1, math.MaxUint64 / 3, math.MaxUint64},
	} {
		frames := []Frame{{Cycle: c.cycle, TID: 1, Samples: []Sample{{Name: "cycles", Value: 1}}}}
		ss, err := Windowed(frames, c.window, SplitNone)
		if err != nil {
			t.Errorf("cycle %d, window %d: %v", c.cycle, c.window, err)
			continue
		}
		if tail := ss.Windows[len(ss.Windows)-1]; tail.End != c.end || tail.Start >= tail.End {
			t.Errorf("cycle %d, window %d: tail window [%d, %d), want end %d", c.cycle, c.window, tail.Start, tail.End, c.end)
		}
	}
}

// maxWindows keeps a series' WindowSpans and its WindowRows, one per
// key and window, within maxSeriesBytes, and is the most windows that
// do so: each key more allows fewer.
func TestMaxWindowsBoundsEveryArray(t *testing.T) {
	span, row := uint64(unsafe.Sizeof(WindowSpan{})), uint64(unsafe.Sizeof(WindowRow{}))
	prev := uint64(math.MaxUint64)
	for _, keys := range []uint64{1, 2, 3, 1000, 1 << 20} {
		n := maxWindows(int(keys))
		if n*span > maxSeriesBytes || n*keys*row > maxSeriesBytes {
			t.Errorf("%d keys: %d windows pass %d bytes", keys, n, uint64(maxSeriesBytes))
		}
		if (n+1)*keys*row <= maxSeriesBytes {
			t.Errorf("%d keys: %d windows is not the most that fit", keys, n)
		}
		if n >= prev {
			t.Errorf("%d keys allow %d windows, no fewer than one key less", keys, n)
		}
		prev = n
	}
}

func TestWindowedEmptyStream(t *testing.T) {
	ss, err := Windowed(nil, 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Windows) != 0 || len(ss.Keys) != 0 {
		t.Errorf("empty stream produced windows %v keys %v", ss.Windows, ss.Keys)
	}
	if rows := ss.Rows(nil); len(rows) != 0 {
		t.Errorf("empty stream produced %d rows", len(rows))
	}
}

// Windowing canonicalizes with Merge first, so shard order is
// invisible.
func TestWindowedMergeOrderInvariant(t *testing.T) {
	frames := windowFrames()
	shuffled := []Frame{frames[3], frames[1], frames[0], frames[2]}
	a, err := Windowed(frames, 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Windowed(shuffled, 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := WriteSeriesJSONL(&ba, a.Rows(catalogDefs())); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeriesJSONL(&bb, b.Rows(catalogDefs())); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Error("frame input order changed the windowed series bytes")
	}
}

func catalogDefs() []*Def {
	defs := make([]*Def, 0, len(Builtin))
	for i := range Builtin {
		defs = append(defs, &Builtin[i])
	}
	return defs
}

// Rows: Inputs keeps the exact signed deltas (the reconciliation
// currency), while metric evaluation clamps negatives to zero — a
// briefly downward-revising estimate is not a negative event rate.
func TestRowsClampNegativeForEvalOnly(t *testing.T) {
	ss, err := Windowed(windowFrames(), 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	rows := ss.Rows([]*Def{Lookup("cpi")})
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	w3 := rows[3]
	if w3.Inputs["cycles"] != -10 {
		t.Errorf("w3 input cycles = %d, want -10 (signed)", w3.Inputs["cycles"])
	}
	if w3.Metrics["cpi"] != 0 {
		t.Errorf("w3 cpi = %v, want 0 (clamped numerator)", w3.Metrics["cpi"])
	}
	if !w3.Partial {
		t.Error("w3 should carry the partial mark")
	}
	// Window 1: instructions never ran → delta 0 → cpi 0 by the
	// div-by-zero policy, never NaN.
	if v := rows[1].Metrics["cpi"]; v != 0 {
		t.Errorf("w1 cpi = %v, want 0 (instructions never ran)", v)
	}
	if rows[0].Metrics["cpi"] != 2 {
		t.Errorf("w0 cpi = %v, want 2", rows[0].Metrics["cpi"])
	}
}

// Golden determinism for the series JSONL shape: pinned bytes, then
// render → parse → render byte-identical.
func TestSeriesJSONLGolden(t *testing.T) {
	ss, err := Windowed(windowFrames(), 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	rows := ss.Rows([]*Def{Lookup("cpi")})
	var buf bytes.Buffer
	if err := WriteSeriesJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	golden := `{"window":0,"start":0,"end":100,"partial":false,"key":"all","inputs":{"cycles":10,"instructions":5},"metrics":{"cpi":2.000000}}
{"window":1,"start":100,"end":200,"partial":false,"key":"all","inputs":{"cycles":40,"instructions":0},"metrics":{"cpi":0.000000}}
{"window":2,"start":200,"end":300,"partial":false,"key":"all","inputs":{"cycles":90,"instructions":45},"metrics":{"cpi":2.000000}}
{"window":3,"start":300,"end":400,"partial":true,"key":"all","inputs":{"cycles":-10,"instructions":10},"metrics":{"cpi":0.000000}}
`
	if buf.String() != golden {
		t.Errorf("series JSONL drifted from golden:\n got: %q\nwant: %q", buf.String(), golden)
	}
	parsed, err := ParseSeriesJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteSeriesJSONL(&buf2, parsed); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != golden {
		t.Error("series render→parse→render not byte-identical")
	}
}

func TestSeriesJSONLSchemaDrift(t *testing.T) {
	drifted := `{"window":0,"start":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{},"bogus":1}`
	_, err := ParseSeriesJSONL(strings.NewReader(drifted))
	var se *telemetry.SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("unknown field error = %v, want *telemetry.SchemaError", err)
	}
	missing := `{"window":0,"start":0,"end":100,"partial":false,"key":"all"}`
	if _, err := ParseSeriesJSONL(strings.NewReader(missing)); !errors.As(err, &se) {
		t.Fatalf("missing inputs/metrics error = %v, want *telemetry.SchemaError", err)
	}
	// Every field is required (nothing is silently defaulted), keys
	// match exactly, and a key appears once.
	for _, line := range []string{
		`{"start":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{}}`,
		`{"window":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{}}`,
		`{"window":0,"start":0,"partial":false,"key":"all","inputs":{},"metrics":{}}`,
		`{"window":0,"start":0,"end":100,"key":"all","inputs":{},"metrics":{}}`,
		`{"window":0,"start":0,"end":100,"partial":false,"inputs":{},"metrics":{}}`,
		`{"window":0,"start":0,"end":100,"partial":false,"key":null,"inputs":{},"metrics":{}}`,
		`{"Window":0,"start":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{}}`,
		`{"window":0,"window":1,"start":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{}}`,
		`{"window":0,"start":0,"end":100,"partial":false,"key":"all","inputs":{"cycles":1,"cycles":2},"metrics":{}}`,
		`{"window":0,"start":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{"cpi":1,"cpi":2}}`,
	} {
		if _, err := ParseSeriesJSONL(strings.NewReader(line)); !errors.As(err, &se) {
			t.Errorf("ParseSeriesJSONL(%s) err = %v, want *telemetry.SchemaError", line, err)
		}
	}
	row := `{"window":0,"start":0,"end":100,"partial":false,"key":"all","inputs":{},"metrics":{}}`
	for _, line := range []string{`{"window":`, row + ` junk`, row + row, `{"window":0.5}`} {
		if _, err := ParseSeriesJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("malformed line accepted: %s", line)
		} else if errors.As(err, &se) {
			t.Errorf("malformed line misreported as schema drift: %s: %v", line, err)
		}
	}
}

// A negative window index would index a report's chart before its
// first window; the parser rejects it and names the line.
func TestSeriesJSONLRejectsNegativeWindow(t *testing.T) {
	row := `{"window":%d,"start":0,"end":100,"partial":false,"key":"all","inputs":{"cycles":1},"metrics":{"cpi":1.5}}` + "\n"
	for _, tc := range []struct {
		in   string
		want string // "" when the stream parses
	}{
		{fmt.Sprintf(row, 0) + fmt.Sprintf(row, 1), ""},
		{fmt.Sprintf(row, 0) + fmt.Sprintf(row, -1), "series line 2: window -1 is negative"},
		{fmt.Sprintf(row, math.MinInt64), "series line 1: window -9223372036854775808 is negative"},
	} {
		_, err := ParseSeriesJSONL(strings.NewReader(tc.in))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("ParseSeriesJSONL(%q): %v", tc.in, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("ParseSeriesJSONL(%q) err = %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

func TestRenderSeriesTextMarksPartial(t *testing.T) {
	ss, err := Windowed(windowFrames(), 100, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderSeriesText(&buf, "series", ss.Rows([]*Def{Lookup("cpi")}))
	out := buf.String()
	if !strings.Contains(out, "300..400 (partial)") {
		t.Errorf("tail window not marked partial:\n%s", out)
	}
	if strings.Count(out, "(partial)") != 1 {
		t.Errorf("exactly one partial window expected:\n%s", out)
	}
	var empty bytes.Buffer
	RenderSeriesText(&empty, "series", nil)
	if !strings.Contains(empty.String(), "no frames") {
		t.Errorf("empty series render = %q", empty.String())
	}
}

func TestParseSplit(t *testing.T) {
	cases := []struct {
		in   string
		want Split
		ok   bool
	}{
		{"", SplitNone, true},
		{"none", SplitNone, true},
		{"tenant", SplitTenant, true},
		{"thread", SplitThread, true},
		{"bogus", SplitNone, false},
	}
	for _, c := range cases {
		got, ok := ParseSplit(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseSplit(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
	for s, name := range map[Split]string{SplitNone: "none", SplitTenant: "tenant", SplitThread: "thread"} {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
}
