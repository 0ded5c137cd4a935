package fleet

// Wire framing between the coordinator and its workers: length-prefixed
// JSON frames over pipes. A fleet only earns trust if a half-written,
// reordered, or version-skewed frame fails loudly instead of merging
// garbage, so every frame carries the wire version and is validated
// field-by-field on read. Violations surface as *WireError naming the
// frame and the field that failed.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// WireVersion is the frame schema version. Readers reject any other
// version: a skewed coordinator/worker pair must fail its handshake,
// never exchange frames whose fields silently changed meaning.
const WireVersion = 2

// MaxFrameLen bounds a frame body. A length prefix beyond it is
// treated as stream corruption (a torn or misaligned frame), not as an
// instruction to allocate gigabytes.
const MaxFrameLen = 16 << 20

// WireError reports a frame that failed validation: torn (truncated
// mid-body), oversized, unparseable, version-skewed, or missing a
// required field. Frame names which frame (the declared type when it
// could be read, "?" otherwise); Field names what failed.
type WireError struct {
	// Frame is the frame type, or "?" when the type never arrived.
	Frame string
	// Field is the offending field ("len", "body", "v", "type", "json").
	Field string
	// Detail says what was wrong with it.
	Detail string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("fleet: wire frame %q field %q: %s", e.Frame, e.Field, e.Detail)
}

// frame is the on-the-wire envelope: a 4-byte big-endian body length,
// then the JSON body {"v":2,"type":"...","data":{...}}.
type frame struct {
	V    int             `json:"v"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// WriteFrame marshals data and writes one framed message. The payload
// may be nil for frames that are pure signals ("heartbeat",
// "shutdown").
func WriteFrame(w io.Writer, typ string, data any) error {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return fmt.Errorf("fleet: marshal %q frame: %w", typ, err)
		}
		raw = b
	}
	body, err := json.Marshal(frame{V: WireVersion, Type: typ, Data: raw})
	if err != nil {
		return fmt.Errorf("fleet: marshal %q envelope: %w", typ, err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads and validates one framed message, returning its type
// and raw payload. io.EOF is returned bare when the stream ends cleanly
// between frames; every other malformation — a torn length or body, an
// oversized length, unparseable JSON, a version mismatch, a missing
// type — is a *WireError naming the frame and field.
func ReadFrame(r io.Reader) (string, json.RawMessage, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return "", nil, io.EOF
		}
		return "", nil, &WireError{Frame: "?", Field: "len",
			Detail: fmt.Sprintf("truncated length prefix: %v", err)}
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameLen {
		return "", nil, &WireError{Frame: "?", Field: "len",
			Detail: fmt.Sprintf("body length %d outside (0, %d]", n, MaxFrameLen)}
	}
	body := make([]byte, n)
	if got, err := io.ReadFull(r, body); err != nil {
		return "", nil, &WireError{Frame: "?", Field: "body",
			Detail: fmt.Sprintf("torn frame: got %d of %d bytes (%v)", got, n, err)}
	}
	var f frame
	if err := json.Unmarshal(body, &f); err != nil {
		return "", nil, &WireError{Frame: "?", Field: "json",
			Detail: fmt.Sprintf("unparseable body: %v", err)}
	}
	if f.V != WireVersion {
		return "", nil, &WireError{Frame: f.Type, Field: "v",
			Detail: fmt.Sprintf("version skew: frame v%d, reader v%d", f.V, WireVersion)}
	}
	if f.Type == "" {
		return "", nil, &WireError{Frame: "?", Field: "type", Detail: "empty frame type"}
	}
	return f.Type, f.Data, nil
}
