package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"limitsim/internal/jsonl"
	"limitsim/internal/tabwrite"
)

// Windowed metric evaluation: slice a per-rotation frame stream into
// fixed cycle windows and evaluate catalogue metrics per window —
// the time-series view of the same counters Totals folds into one
// number. Window w covers machine cycles [w*W, (w+1)*W); a frame at
// cycle c lands in window c/W. Samples are cumulative, so a window's
// contribution is the per-thread delta between consecutive frames,
// kept *signed*: scaled estimates are documented as non-monotonic
// (the enabled/running ratio moves), so individual deltas may dip
// below zero while the telescoped sum over all windows still equals
// the end-of-run total exactly — the reconciliation guarantee the
// regression tests pin.
//
// Determinism rules, fixed here so every renderer inherits them:
//
//   - The tail window is Partial when the stream's last frame lands
//     before the window's nominal end (the run ended inside it).
//   - An event that never ran in a window contributes a delta of 0;
//     a metric whose inputs are all zero (or that references events
//     absent from the stream) evaluates to 0, never NaN/Inf — the
//     catalogue's division policy.
//   - Split keys and event names render in sorted order; windows in
//     index order. Same frames, same bytes.

// Split selects how a windowed series is keyed: one aggregate series,
// one per tenant, or one per thread (the per-worker view — workload
// threads are the simulated workers).
type Split int

// Split values.
const (
	SplitNone Split = iota
	SplitTenant
	SplitThread
)

// ParseSplit resolves a -split flag value.
func ParseSplit(s string) (Split, bool) {
	switch s {
	case "", "none":
		return SplitNone, true
	case "tenant":
		return SplitTenant, true
	case "thread":
		return SplitThread, true
	}
	return SplitNone, false
}

func (s Split) String() string {
	switch s {
	case SplitTenant:
		return "tenant"
	case SplitThread:
		return "thread"
	default:
		return "none"
	}
}

// keyLabel renders one split key. SplitNone uses "all" so a JSONL row
// is self-describing without the split context.
func (s Split) keyLabel(id int) string {
	switch s {
	case SplitTenant:
		return fmt.Sprintf("tenant%d", id)
	case SplitThread:
		return fmt.Sprintf("tid%d", id)
	default:
		return "all"
	}
}

// WindowSpan is one fixed cycle window of a series.
type WindowSpan struct {
	Index      int
	Start, End uint64 // nominal bounds [Start, End)
	// Partial marks the tail window the frame stream ended inside.
	Partial bool
}

// SeriesSet is the windowed view of a frame stream: per split key and
// window, the signed per-event deltas every metric evaluates over.
type SeriesSet struct {
	WindowCycles uint64
	Split        Split
	Windows      []WindowSpan
	// Keys are the split key ids in ascending order (a single 0 for
	// SplitNone).
	Keys []int
	// Names is the sorted union of sample names seen in the stream.
	Names []string
	// deltas[key][window][name]; absent names mean 0.
	deltas map[int][]map[string]int64
}

// Windowed slices frames into fixed windows of window cycles. The
// frames may come straight from FromKernel or from merged shards; they
// are canonicalized with Merge first, so any input order yields the
// same set.
func Windowed(frames []Frame, window uint64, split Split) (*SeriesSet, error) {
	if window == 0 {
		return nil, fmt.Errorf("metrics: window must be positive")
	}
	frames = Merge(frames)
	ss := &SeriesSet{
		WindowCycles: window,
		Split:        split,
		deltas:       make(map[int][]map[string]int64),
	}
	if len(frames) == 0 {
		return ss, nil
	}

	var maxCycle uint64
	for i := range frames {
		if frames[i].Cycle > maxCycle {
			maxCycle = frames[i].Cycle
		}
	}
	numWin := int(maxCycle/window) + 1
	ss.Windows = make([]WindowSpan, numWin)
	for w := range ss.Windows {
		ss.Windows[w] = WindowSpan{
			Index: w,
			Start: uint64(w) * window,
			End:   uint64(w+1) * window,
		}
	}
	last := &ss.Windows[numWin-1]
	last.Partial = maxCycle+1 < last.End

	// Per-thread cumulative tracking mirrors Totals exactly: samples
	// are cumulative, the first sample of a duplicated name wins
	// within a frame (overlapping groups would double count), and the
	// telescoped deltas of a thread sum to its last frame's values.
	cum := make(map[int]map[string]uint64)
	nameSet := make(map[string]bool)
	for i := range frames {
		f := &frames[i]
		key := 0
		switch split {
		case SplitTenant:
			key = f.TenantID()
		case SplitThread:
			key = f.TID
		}
		wins, ok := ss.deltas[key]
		if !ok {
			wins = make([]map[string]int64, numWin)
			ss.deltas[key] = wins
			ss.Keys = append(ss.Keys, key)
		}
		w := int(f.Cycle / window)
		if wins[w] == nil {
			wins[w] = make(map[string]int64)
		}
		prev := cum[f.TID]
		if prev == nil {
			prev = make(map[string]uint64)
			cum[f.TID] = prev
		}
		seen := make(map[string]bool, len(f.Samples))
		for _, s := range f.Samples {
			if seen[s.Name] {
				continue
			}
			seen[s.Name] = true
			nameSet[s.Name] = true
			wins[w][s.Name] += int64(s.Value) - int64(prev[s.Name])
			prev[s.Name] = s.Value
		}
	}
	sort.Ints(ss.Keys)
	ss.Names = make([]string, 0, len(nameSet))
	for name := range nameSet {
		ss.Names = append(ss.Names, name)
	}
	sort.Strings(ss.Names)
	return ss, nil
}

// Delta returns one key's signed per-event deltas for window w (nil
// for a window in which the key never ran).
func (ss *SeriesSet) Delta(key, w int) map[string]int64 {
	wins, ok := ss.deltas[key]
	if !ok || w < 0 || w >= len(wins) {
		return nil
	}
	return wins[w]
}

// WindowRow is one (window, key) evaluation: the signed event deltas
// and the derived metric values. It is the JSONL line shape and the
// parse result of ParseSeriesJSONL.
type WindowRow struct {
	Window  int                `json:"window"`
	Start   uint64             `json:"start"`
	End     uint64             `json:"end"`
	Partial bool               `json:"partial"`
	Key     string             `json:"key"`
	Inputs  map[string]int64   `json:"inputs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Rows evaluates the chosen metric definitions per window per key,
// window-major then key order. A metric referencing events absent from
// the stream evaluates to 0 in every window (deterministic, mirroring
// the never-ran rule); negative input deltas are clamped to 0 for
// evaluation only (a scaled estimate briefly revising downward is not
// a negative event rate) while Inputs keeps the exact signed values
// the reconciliation guarantee sums.
func (ss *SeriesSet) Rows(defs []*Def) []WindowRow {
	rows := make([]WindowRow, 0, len(ss.Windows)*len(ss.Keys))
	for _, win := range ss.Windows {
		for _, key := range ss.Keys {
			deltas := ss.Delta(key, win.Index)
			row := WindowRow{
				Window:  win.Index,
				Start:   win.Start,
				End:     win.End,
				Partial: win.Partial,
				Key:     ss.Split.keyLabel(key),
				Inputs:  make(map[string]int64, len(ss.Names)),
				Metrics: make(map[string]float64, len(defs)),
			}
			env := make(map[string]float64, len(ss.Names))
			for _, name := range ss.Names {
				d := deltas[name]
				row.Inputs[name] = d
				if d < 0 {
					d = 0
				}
				env[name] = float64(d)
			}
			for _, d := range defs {
				v, err := d.Eval(env)
				if err != nil {
					v = 0
				}
				row.Metrics[d.Name] = v
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// sortedKeys returns a string map's keys in sorted order, reusing keys
// (its storage, or itself when it already holds exactly m's keys).
func sortedKeys[V any](keys []string, m map[string]V) []string {
	if len(keys) == len(m) {
		same := true
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				same = false
				break
			}
		}
		if same {
			return keys
		}
	}
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteSeriesJSONL renders rows one JSON object per line,
// hand-formatted for byte determinism: fixed field order, inputs and
// metrics keys sorted, metric values with six decimals.
func WriteSeriesJSONL(w io.Writer, rows []WindowRow) error {
	bw := bufio.NewWriter(w)
	var line []byte
	var inputNames, metricNames []string
	for i := range rows {
		r := &rows[i]
		line = append(line[:0], `{"window":`...)
		line = strconv.AppendInt(line, int64(r.Window), 10)
		line = append(line, `,"start":`...)
		line = strconv.AppendUint(line, r.Start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendUint(line, r.End, 10)
		line = append(line, `,"partial":`...)
		line = strconv.AppendBool(line, r.Partial)
		line = append(line, `,"key":`...)
		line = jsonl.AppendString(line, r.Key)
		line = append(line, `,"inputs":{`...)
		inputNames = sortedKeys(inputNames, r.Inputs)
		for j, name := range inputNames {
			if j > 0 {
				line = append(line, ',')
			}
			line = jsonl.AppendString(line, name)
			line = append(line, ':')
			line = strconv.AppendInt(line, r.Inputs[name], 10)
		}
		line = append(line, `},"metrics":{`...)
		metricNames = sortedKeys(metricNames, r.Metrics)
		for j, name := range metricNames {
			if j > 0 {
				line = append(line, ',')
			}
			line = jsonl.AppendString(line, name)
			line = append(line, ':')
			line = strconv.AppendFloat(line, r.Metrics[name], 'f', 6, 64)
		}
		line = append(line, "}}\n"...)
		bw.Write(line) // a write error sticks; Flush returns it
	}
	return bw.Flush()
}

// rowSchema is the JSONL schema of a WindowRow; the constants index its
// fields.
var rowSchema = jsonl.NewSchema([]string{"window", "start", "end", "partial", "key", "inputs", "metrics"})

const (
	rWindow = iota
	rStart
	rEnd
	rPartial
	rKey
	rInputs
	rMetrics
)

// ParseSeriesJSONL reads a WriteSeriesJSONL stream back. Strict like
// ParseJSONL: every field is required, and an unknown, duplicate or
// missing field (a duplicate input or metric name included) is schema
// drift (*telemetry.SchemaError).
func ParseSeriesJSONL(r io.Reader) ([]WindowRow, error) {
	var (
		out   []WindowRow
		d     jsonl.Decoder
		names = interner{}
		// The previous row's map sizes.
		nInputs, nMetrics int
	)
	line, err := jsonl.ReadLines(r, func(b []byte) error {
		d.Reset(b)
		var row WindowRow
		err := d.Object(rowSchema, func(i int) error {
			var err error
			switch i {
			case rWindow:
				var w int64
				w, err = d.Int()
				row.Window = int(w)
			case rStart:
				row.Start, err = d.Uint()
			case rEnd:
				row.End, err = d.Uint()
			case rPartial:
				row.Partial, err = d.Bool()
			case rKey:
				var b []byte
				b, err = d.StringBytes()
				row.Key = names.intern(b)
			case rInputs:
				row.Inputs = make(map[string]int64, nInputs)
				err = d.Map(func(key []byte) error {
					name := names.intern(key)
					if _, dup := row.Inputs[name]; dup {
						return &jsonl.FieldError{Problem: "duplicate", Field: "inputs." + name}
					}
					v, err := d.Int()
					row.Inputs[name] = v
					return err
				})
			case rMetrics:
				row.Metrics = make(map[string]float64, nMetrics)
				err = d.Map(func(key []byte) error {
					name := names.intern(key)
					if _, dup := row.Metrics[name]; dup {
						return &jsonl.FieldError{Problem: "duplicate", Field: "metrics." + name}
					}
					v, err := d.Float()
					row.Metrics[name] = v
					return err
				})
			}
			return err
		})
		if err == nil {
			err = d.End()
		}
		if err != nil {
			return err
		}
		nInputs, nMetrics = len(row.Inputs), len(row.Metrics)
		out = append(out, row)
		return nil
	})
	if err != nil {
		return nil, lineError("series", line, err)
	}
	return out, nil
}

// RenderSeriesText writes rows as one aligned table: a window and key
// column, then one column per metric in sorted name order. The tail
// window's span is marked "(partial)".
func RenderSeriesText(w io.Writer, title string, rows []WindowRow) {
	if len(rows) == 0 {
		fmt.Fprintf(w, "%s: no frames\n", title)
		return
	}
	names := sortedKeys(nil, rows[0].Metrics)
	header := append([]string{"window", "cycles", "key"}, names...)
	t := tabwrite.New(title, header...)
	for i := range rows {
		r := &rows[i]
		span := fmt.Sprintf("%d..%d", r.Start, r.End)
		if r.Partial {
			span += " (partial)"
		}
		cells := []any{r.Window, span, r.Key}
		for _, name := range names {
			cells = append(cells, fmt.Sprintf("%.4f", r.Metrics[name]))
		}
		t.Row(cells...)
	}
	t.Render(w)
}
