package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Structured trace export: the same event stream the text dump prints,
// in two tool-consumable encodings. The Chrome trace-event JSON form
// loads directly into Perfetto / chrome://tracing (cores map to pids,
// threads to tids, every kernel event is an instant); the JSONL form
// is one event object per line for scripted analysis. Both writers
// hand-format their JSON so output is byte-deterministic for a given
// event sequence. Both carry the exact Event values: timestamps in the
// Chrome form are rounded to microseconds for the viewer, so the exact
// cycle rides along in args.

// WriteJSONL writes one JSON object per event:
// {"cycle":N,"core":N,"tid":N,"kind":"name","arg":N}.
func WriteJSONL(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "{\"cycle\":%d,\"core\":%d,\"tid\":%d,\"kind\":%q,\"arg\":%d}\n",
			e.Cycle, e.Core, e.TID, e.Kind.String(), e.Arg); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the events as a Chrome trace-event JSON document
// ({"traceEvents":[...],"displayTimeUnit":"ns"}) loadable by Perfetto
// and chrome://tracing. Each kernel event becomes a thread-scoped
// instant on pid=core, tid=thread; ts is the cycle count converted to
// microseconds at cyclesPerUsec (pass 0 to default to 3000, the
// simulation's nominal 3 GHz). The exact cycle and the kind-specific
// arg travel in args so a parse loses nothing to the ts rounding.
func WriteChrome(w io.Writer, events []Event, cyclesPerUsec float64) error {
	if cyclesPerUsec <= 0 {
		cyclesPerUsec = 3000
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w,
			"{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"cycle\":%d,\"arg\":%d}}%s\n",
			e.Kind.String(), float64(e.Cycle)/cyclesPerUsec, e.Core, e.TID, e.Cycle, e.Arg, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

// Span is a named duration on a (pid, tid) track — the hierarchy/
// flame-graph form of a trace. The profiler exports its region tree
// this way: nested regions become nested complete events, and the
// gaps between a span and its children read as self time.
type Span struct {
	Name       string
	PID, TID   int
	StartCycle uint64
	DurCycles  uint64
}

// WriteChromeSpans writes spans as Chrome trace-event "complete"
// events ("ph":"X"), Perfetto-loadable like WriteChrome. ts/dur are
// cycle counts converted to microseconds at cyclesPerUsec (0 defaults
// to 3000); the exact cycles travel in args. Byte-deterministic.
func WriteChromeSpans(w io.Writer, spans []Span, cyclesPerUsec float64) error {
	if cyclesPerUsec <= 0 {
		cyclesPerUsec = 3000
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w,
			"{\"name\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"start_cycle\":%d,\"dur_cycles\":%d}}%s\n",
			s.Name, float64(s.StartCycle)/cyclesPerUsec, float64(s.DurCycles)/cyclesPerUsec,
			s.PID, s.TID, s.StartCycle, s.DurCycles, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

// chromeSpan is the parse shape for one WriteChromeSpans event.
type chromeSpan struct {
	Name string `json:"name"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	Args struct {
		StartCycle uint64 `json:"start_cycle"`
		DurCycles  uint64 `json:"dur_cycles"`
	} `json:"args"`
}

// ParseChromeSpans reads a WriteChromeSpans document back into the
// exact span sequence.
func ParseChromeSpans(r io.Reader) ([]Span, error) {
	var doc struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: chrome spans: %w", err)
	}
	out := make([]Span, 0, len(doc.TraceEvents))
	for _, cs := range doc.TraceEvents {
		out = append(out, Span{
			Name: cs.Name, PID: cs.PID, TID: cs.TID,
			StartCycle: cs.Args.StartCycle, DurCycles: cs.Args.DurCycles,
		})
	}
	return out, nil
}
