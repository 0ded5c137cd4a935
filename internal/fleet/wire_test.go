package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	type payload struct {
		Key int    `json:"key"`
		Msg string `json:"msg"`
	}
	if err := WriteFrame(&buf, "job", payload{Key: 7, Msg: "hi"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, "shutdown", nil); err != nil {
		t.Fatal(err)
	}
	typ, data, err := ReadFrame(&buf)
	if err != nil || typ != "job" {
		t.Fatalf("ReadFrame = %q, %v", typ, err)
	}
	var p payload
	if err := json.Unmarshal(data, &p); err != nil || p.Key != 7 || p.Msg != "hi" {
		t.Fatalf("payload = %+v, %v", p, err)
	}
	typ, data, err = ReadFrame(&buf)
	if err != nil || typ != "shutdown" || len(data) != 0 {
		t.Fatalf("shutdown frame = %q, %q, %v", typ, data, err)
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

// TestWireTornFrame: a body cut short mid-frame must produce a
// *WireError naming the body field — never a short, silently-parsed
// payload.
func TestWireTornFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, "result", map[string]int{"key": 3}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-5]
	_, _, err := ReadFrame(bytes.NewReader(torn))
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v (%T), want *WireError", err, err)
	}
	if we.Field != "body" || !strings.Contains(we.Detail, "torn") {
		t.Errorf("WireError = %+v, want Field=body naming the tear", we)
	}
}

// TestWireVersionSkew: a frame from a different wire version is
// rejected with a *WireError naming the version field and the frame
// type, so a skewed worker fails loudly at the handshake.
func TestWireVersionSkew(t *testing.T) {
	body := []byte(`{"v":1,"type":"hello","data":{}}`)
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	_, _, err := ReadFrame(&buf)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WireError", err)
	}
	if we.Frame != "hello" || we.Field != "v" || !strings.Contains(we.Detail, "version skew") {
		t.Errorf("WireError = %+v, want frame hello field v", we)
	}
}

func TestWireRejectsBadLengthAndJSON(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameLen+1)
	buf.Write(hdr[:])
	var we *WireError
	if _, _, err := ReadFrame(&buf); !errors.As(err, &we) || we.Field != "len" {
		t.Errorf("oversized length: err = %v, want *WireError on len", err)
	}
	// Unparseable body.
	buf.Reset()
	body := []byte(fmt.Sprintf(`{"v":%d,`, WireVersion))
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, _, err := ReadFrame(&buf); !errors.As(err, &we) || we.Field != "json" {
		t.Errorf("bad json: err = %v, want *WireError on json", err)
	}
	// Missing type.
	buf.Reset()
	body = []byte(fmt.Sprintf(`{"v":%d,"data":{}}`, WireVersion))
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, _, err := ReadFrame(&buf); !errors.As(err, &we) || we.Field != "type" {
		t.Errorf("missing type: err = %v, want *WireError on type", err)
	}
	// Truncated length prefix (one byte of header).
	buf.Reset()
	buf.Write([]byte{0x00})
	if _, _, err := ReadFrame(&buf); !errors.As(err, &we) || we.Field != "len" {
		t.Errorf("torn header: err = %v, want *WireError on len", err)
	}
}

// FuzzReadFrame: any input ends in io.EOF or a *WireError, or it
// yields a frame that WriteFrame re-encodes and ReadFrame reads back
// with the same type and the payload compacted the way encoding/json
// writes it (HTML-escaped). No input panics.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, "result", replyPayload{Key: 3, Payload: json.RawMessage(`{"a": [1, "<b>"]}`)})
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-4])
	seed.Reset()
	WriteFrame(&seed, "shutdown", nil)
	f.Add(seed.Bytes())
	f.Add([]byte("\x00\x00\x00\x20{\"v\":1,\"type\":\"ready\",\"data\":{}}"))
	f.Add([]byte("\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, in []byte) {
		typ, data, err := ReadFrame(bytes.NewReader(in))
		if err != nil {
			var we *WireError
			if err != io.EOF && !errors.As(err, &we) {
				t.Fatalf("err = %v (%T), want io.EOF or *WireError", err, err)
			}
			return
		}
		var payload any
		var want bytes.Buffer
		if len(data) > 0 {
			payload = data
			var compact bytes.Buffer
			if err := json.Compact(&compact, data); err != nil {
				t.Fatalf("payload %q read back as invalid JSON: %v", data, err)
			}
			json.HTMLEscape(&want, compact.Bytes())
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encoding %q frame: %v", typ, err)
		}
		typ2, data2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read of %q: %v", buf.Bytes(), err)
		}
		if typ2 != typ || !bytes.Equal(data2, want.Bytes()) {
			t.Fatalf("round trip: got (%q, %q), want (%q, %q)", typ2, data2, typ, want.Bytes())
		}
	})
}
