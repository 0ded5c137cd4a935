package metrics

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"limitsim/internal/telemetry"
)

// A group that was opened but never loaded on hardware reports
// running=0 with a zero estimate; the JSONL round trip must keep those
// zeros exact, and Totals/Windowed must treat them as real zeros.
func TestFrameJSONLZeroRunning(t *testing.T) {
	frames := []Frame{
		{Seq: 0, Cycle: 500, TID: 3, Final: true, Samples: []Sample{
			{Name: "l1d-miss", Value: 0, Enabled: 500, Running: 0},
			{Name: "cycles", Value: 480, Enabled: 500, Running: 500},
		}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, frames); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || len(parsed[0].Samples) != 2 {
		t.Fatalf("parsed %+v", parsed)
	}
	if s := parsed[0].Samples[0]; s.Value != 0 || s.Running != 0 || s.Enabled != 500 {
		t.Errorf("zero-running sample round trip = %+v", s)
	}
	totals := Totals(parsed)
	if totals["l1d-miss"] != 0 {
		t.Errorf("never-ran total = %d, want 0", totals["l1d-miss"])
	}
	ss, err := Windowed(parsed, 1000, SplitNone)
	if err != nil {
		t.Fatal(err)
	}
	if d := ss.Delta(0, 0); d["l1d-miss"] != 0 {
		t.Errorf("never-ran window delta = %d, want 0", d["l1d-miss"])
	}
}

// The 128-bit scale path can legally produce estimates near the top of
// the uint64 range. The JSONL round trip must be exact at and past the
// int64 boundary — Go's encoder emits full-precision integers and the
// strict parser reads them back without a float64 detour.
func TestFrameJSONLInt64Boundary(t *testing.T) {
	values := []uint64{
		math.MaxInt64 - 1,
		math.MaxInt64,
		math.MaxInt64 + 1,
		math.MaxUint64,
	}
	frames := make([]Frame, len(values))
	for i, v := range values {
		frames[i] = Frame{Seq: uint64(i), Cycle: uint64(i + 1), TID: 1, Samples: []Sample{
			{Name: "cycles", Value: v, Enabled: v, Running: v},
		}}
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, frames); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(values) {
		t.Fatalf("parsed %d frames, want %d", len(parsed), len(values))
	}
	for i, v := range values {
		s := parsed[i].Samples[0]
		if s.Value != v || s.Enabled != v || s.Running != v {
			t.Errorf("value %d round trip = %+v, want %d", v, s, v)
		}
	}
}

// Schema drift — an unknown or missing field — must surface as the
// typed *telemetry.SchemaError so consumers can distinguish a
// versioning bug from ordinary I/O failure; malformed JSON must not.
func TestFrameJSONLSchemaDrift(t *testing.T) {
	var se *telemetry.SchemaError
	drifts := []string{
		// Unknown fields at frame and sample level.
		`{"seq":0,"cycle":1,"tid":1,"surprise":true,"samples":[]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"name":"cycles","value":1,"enabled":1,"running":1,"extra":2}]}`,
		// Missing required frame fields.
		`{"cycle":1,"tid":1,"samples":[]}`,
		`{"seq":0,"tid":1,"samples":[]}`,
		`{"seq":0,"cycle":1,"samples":[]}`,
		`{"seq":0,"cycle":1,"tid":1}`,
		// Missing required sample fields.
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"value":1,"enabled":1,"running":1}]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"name":"cycles","enabled":1,"running":1}]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"name":"cycles","value":1,"running":1}]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"name":"cycles","value":1,"enabled":1}]}`,
		// A null required field is a missing one.
		`{"seq":null,"cycle":1,"tid":1,"samples":[]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":null}`,
		// Keys match exactly: case-folded keys are unknown fields.
		`{"SEQ":0,"Cycle":1,"TID":1,"Samples":[]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"Name":"cycles","value":1,"enabled":1,"running":1}]}`,
		// A key appears once: the last duplicate does not win.
		`{"seq":0,"seq":7,"cycle":1,"tid":1,"samples":[]}`,
		`{"seq":0,"cycle":1,"tid":1,"final":false,"final":true,"samples":[]}`,
		`{"seq":0,"cycle":1,"tid":1,"samples":[{"name":"cycles","value":1,"value":2,"enabled":1,"running":1}]}`,
	}
	for _, line := range drifts {
		_, err := ParseJSONL(strings.NewReader(line))
		if !errors.As(err, &se) {
			t.Errorf("ParseJSONL(%s) err = %v, want *telemetry.SchemaError", line, err)
			continue
		}
		if se.Kind != "frame" || !strings.Contains(se.Name, "line 1") {
			t.Errorf("SchemaError for %s = %+v, want kind=frame name~line 1", line, se)
		}
	}
	// Malformed JSON is an ordinary parse error, not drift: truncated
	// lines, and bytes or a second object after a line's object.
	frame := `{"seq":0,"cycle":1,"tid":1,"samples":[]}`
	for _, line := range []string{
		`{"seq":0,`,
		frame + ` junk`,
		frame + `{"seq":9}`,
		frame + `}`,
		`{"seq":-1,"cycle":1,"tid":1,"samples":[]}`,
		`{"seq":0,"cycle":1.5,"tid":1,"samples":[]}`,
	} {
		_, err := ParseJSONL(strings.NewReader(line))
		if err == nil {
			t.Errorf("malformed line accepted: %s", line)
		} else if errors.As(err, &se) {
			t.Errorf("malformed line misreported as schema drift: %s: %v", line, err)
		}
	}
	// A line the reader cannot deliver (over 16 MiB) is named by its own
	// number, blank lines before it counted.
	long := frame + "\n\n\n" + strings.Repeat("x", 17<<20)
	if _, err := ParseJSONL(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "frames line 4: bufio.Scanner: token too long") {
		t.Errorf("over-long line: err = %v, want it named as frames line 4", err)
	}
	// The optional fields stay optional: tenant and final may be absent
	// or present without tripping the strict parser.
	ok := `{"seq":0,"cycle":1,"tid":1,"tenant":2,"final":true,"samples":[]}`
	parsed, err := ParseJSONL(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if parsed[0].TenantID() != 2 || !parsed[0].Final {
		t.Errorf("optional fields lost: %+v", parsed[0])
	}
}

// Tenant-stamped frames keep their pointer through the JSONL round
// trip, and nil tenants stay omitted (the historical byte shape).
func TestFrameJSONLTenantRoundTrip(t *testing.T) {
	tenant := 1
	frames := []Frame{
		{Seq: 0, Cycle: 10, TID: 1, Tenant: &tenant, Samples: []Sample{{Name: "cycles", Value: 5, Enabled: 10, Running: 10}}},
		{Seq: 1, Cycle: 20, TID: 2, Samples: []Sample{{Name: "cycles", Value: 9, Enabled: 20, Running: 20}}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, frames); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"tenant":1`) {
		t.Errorf("tenant not serialized: %s", out)
	}
	if strings.Contains(strings.Split(out, "\n")[1], "tenant") {
		t.Errorf("nil tenant serialized: %s", out)
	}
	parsed, err := ParseJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if parsed[0].TenantID() != 1 {
		t.Errorf("tenant round trip = %d, want 1", parsed[0].TenantID())
	}
	if parsed[1].Tenant != nil {
		t.Errorf("nil tenant round trip = %v, want nil", *parsed[1].Tenant)
	}
}
