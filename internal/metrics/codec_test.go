package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// oracleLines decodes every non-empty line of data with encoding/json
// into a fresh T, unknown fields disallowed and nothing but whitespace
// allowed after a line's value. It is the reference the strict codec is
// checked against: whatever the codec accepts, encoding/json must
// accept too and read as the same values.
func oracleLines[T any](t *testing.T, data []byte) []T {
	t.Helper()
	var out []T
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var v T
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("encoding/json rejects a line the codec accepts: %v\n%q", err, sc.Bytes())
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("encoding/json finds more after a line the codec accepts: %v\n%q", err, sc.Bytes())
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// encodeFrames renders frames with json.Encoder, the byte shape
// WriteJSONL must reproduce.
func encodeFrames(t *testing.T, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func FuzzParseJSONL(f *testing.F) {
	// Golden frames cut to two samples each: the fuzzer minimizes every
	// input that finds new coverage, which takes seconds for a full
	// 16-sample line.
	golden, err := os.ReadFile("../../testdata/golden/frames-apache.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	frames, err := ParseJSONL(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	for i := range frames[:4] {
		frames[i].Samples = frames[i].Samples[:2]
		var line bytes.Buffer
		if err := WriteJSONL(&line, frames[i:i+1]); err != nil {
			f.Fatal(err)
		}
		f.Add(line.Bytes())
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleFrames()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"seq":0,"cycle":1,"tid":-1,"tenant":2,"final":false,"samples":[{"name":"a\"<é","value":0,"enabled":1,"running":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if want := oracleLines[Frame](t, data); !reflect.DeepEqual(frames, want) {
			t.Fatalf("codec reads %+v, encoding/json reads %+v", frames, want)
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, frames); err != nil {
			t.Fatal(err)
		}
		if want := encodeFrames(t, frames); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("WriteJSONL wrote\n%s\njson.Encoder writes\n%s", out.Bytes(), want)
		}
		again, err := ParseJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written frames: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(frames, again) {
			t.Fatalf("write→parse changed frames:\n%+v\n%+v", frames, again)
		}
	})
}

func FuzzParseSeriesJSONL(f *testing.F) {
	ss, err := Windowed(windowFrames(), 100, SplitNone)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSeriesJSONL(&buf, ss.Rows([]*Def{Lookup("cpi")})); err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	for _, line := range lines {
		f.Add(line)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"window":-1,"start":0,"end":1e0,"partial":true,"key":"t\u0000","inputs":{"a":-9,"b":1},"metrics":{"m":1.25e-3,"n":-0.5}}`))
	f.Add([]byte(`{"window":3,"start":0,"end":1e0,"partial":true,"key":"t\u0000","inputs":{"a":-9,"b":1},"metrics":{"m":1.25e-3,"n":-0.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseSeriesJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if want := oracleLines[WindowRow](t, data); !reflect.DeepEqual(rows, want) {
			t.Fatalf("codec reads %+v, encoding/json reads %+v", rows, want)
		}
		// Metric values are written with six decimals, so the first
		// write may round them; from then on write → parse is exact.
		var out bytes.Buffer
		if err := WriteSeriesJSONL(&out, rows); err != nil {
			t.Fatal(err)
		}
		first, err := ParseSeriesJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written rows: %v\n%s", err, out.Bytes())
		}
		out.Reset()
		if err := WriteSeriesJSONL(&out, first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseSeriesJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written rows: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("write→parse changed rows:\n%+v\n%+v", first, again)
		}
	})
}

// awkwardNames need escaping in JSON: a quote, a backslash, HTML
// characters, control characters, non-ASCII and invalid UTF-8.
var awkwardNames = []string{
	`say "cheese"`, `back\slash`, "<b>&</b>", "bell\a", "nul\x00tab\t", "del\x7f",
	"héllo", "日本", "sep\xe2\x80\xa8", "bad\xff",
}

// Event names are ASCII today, but a name is just a string to both
// codecs: every one must survive both round trips, encoding/json must
// read what they write, and the frame writer must match json.Encoder.
func TestJSONLAwkwardNames(t *testing.T) {
	var frames []Frame
	var rows []WindowRow
	for i, name := range awkwardNames {
		frames = append(frames, Frame{Seq: uint64(i), Cycle: uint64(i), TID: 1, Samples: []Sample{{Name: name, Value: 1}}})
		rows = append(rows, WindowRow{Window: i, Key: name, Inputs: map[string]int64{name: -1}, Metrics: map[string]float64{name: 0.5}})
	}
	// encoding/json writes invalid UTF-8 as U+FFFD, so that name reads
	// back changed; valid names must come back exactly.
	valid := func(s string) string { return strings.ToValidUTF8(s, string(utf8.RuneError)) }

	var fb bytes.Buffer
	if err := WriteJSONL(&fb, frames); err != nil {
		t.Fatal(err)
	}
	if want := encodeFrames(t, frames); !bytes.Equal(fb.Bytes(), want) {
		t.Errorf("WriteJSONL wrote\n%s\njson.Encoder writes\n%s", fb.Bytes(), want)
	}
	parsed, err := ParseJSONL(bytes.NewReader(fb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleLines[Frame](t, fb.Bytes())
	for i, name := range awkwardNames {
		if got := parsed[i].Samples[0].Name; got != valid(name) || oracle[i].Samples[0].Name != got {
			t.Errorf("frame name %q read back as %q (encoding/json: %q)", name, got, oracle[i].Samples[0].Name)
		}
	}

	var sb bytes.Buffer
	if err := WriteSeriesJSONL(&sb, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSeriesJSONL(bytes.NewReader(sb.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.Bytes())
	}
	soracle := oracleLines[WindowRow](t, sb.Bytes())
	if !reflect.DeepEqual(back, soracle) {
		t.Errorf("series codec reads %+v, encoding/json reads %+v", back, soracle)
	}
	for i, name := range awkwardNames {
		want := valid(name)
		if back[i].Key != want || back[i].Inputs[want] != -1 || back[i].Metrics[want] != 0.5 {
			t.Errorf("series name %q read back as %+v", name, back[i])
		}
	}
}

// The reflection-free writers must not drift from what the simulator
// streams have always looked like: json.Encoder bytes for frames.
func TestWriteJSONLMatchesEncoder(t *testing.T) {
	tenant := -3
	frames := append(sampleFrames(),
		Frame{Seq: 9, Cycle: 1 << 63, TID: -2, Tenant: &tenant, Final: true, Samples: []Sample{}},
		Frame{Seq: 10, Cycle: 11},
	)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, frames); err != nil {
		t.Fatal(err)
	}
	if want := encodeFrames(t, frames); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteJSONL wrote\n%s\njson.Encoder writes\n%s", buf.Bytes(), want)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLWriteErrors(t *testing.T) {
	if err := WriteJSONL(failWriter{}, sampleFrames()); err == nil {
		t.Error("WriteJSONL dropped the writer's error")
	}
	rows := []WindowRow{{Key: "all", Inputs: map[string]int64{}, Metrics: map[string]float64{}}}
	if err := WriteSeriesJSONL(failWriter{}, rows); err == nil {
		t.Error("WriteSeriesJSONL dropped the writer's error")
	}
}
