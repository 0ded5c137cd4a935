package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"unsafe"

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
	// cells[k*len(Windows)+w] is 1 + the offset in deltas of key Keys[k]'s
	// deltas in window w, one per name in Names order; 0 when the key
	// never ran in the window.
	cells  []int
	deltas []int64
}

// maxSeriesBytes bounds each array built per window of a series set:
// 2^47 bytes, half the largest allocation Go accepts on 64-bit Linux,
// or the largest int where that is smaller.
const maxSeriesBytes = min(math.MaxInt, 1<<47)

// maxWindows is the most windows a series set of keys split keys may
// have: its WindowSpans, and its cells and Rows' WindowRows (one per
// key and window; a WindowRow outweighs a cell), stay within
// maxSeriesBytes.
func maxWindows(keys int) uint64 {
	perWindow := max(unsafe.Sizeof(WindowSpan{}), uintptr(keys)*unsafe.Sizeof(WindowRow{}))
	return maxSeriesBytes / uint64(perWindow)
}

// Windowed slices frames into fixed windows of window cycles. The
// frames may come straight from FromKernel or from merged shards; they
// are canonicalized with Merge first, so any input order yields the
// same set. A stream that needs more windows than maxWindows allows,
// or whose last window ends past cycle 2^64-1, is an error naming the
// last cycle and the window.
func Windowed(frames []Frame, window uint64, split Split) (*SeriesSet, error) {
	if window == 0 {
		return nil, fmt.Errorf("metrics: window must be positive")
	}
	frames = Merge(frames)
	ss := &SeriesSet{WindowCycles: window, Split: split}
	if len(frames) == 0 {
		return ss, nil
	}
	key := func(f *Frame) int {
		switch split {
		case SplitTenant:
			return f.TenantID()
		case SplitThread:
			return f.TID
		}
		return 0
	}

	// First pass: the last cycle, the split keys and the names. Once
	// sorted, each key and name is indexed by its sorted position.
	keyIndex := make(map[int]int)
	nameIndex := make(map[string]int)
	var maxCycle uint64
	for i := range frames {
		f := &frames[i]
		maxCycle = max(maxCycle, f.Cycle)
		if k := key(f); keyIndex[k] == 0 {
			keyIndex[k] = 1
			ss.Keys = append(ss.Keys, k)
		}
		for j := range f.Samples {
			if name := f.Samples[j].Name; nameIndex[name] == 0 {
				nameIndex[name] = 1
				ss.Names = append(ss.Names, name)
			}
		}
	}
	sort.Ints(ss.Keys)
	for i, k := range ss.Keys {
		keyIndex[k] = i
	}
	sort.Strings(ss.Names)
	for i, name := range ss.Names {
		nameIndex[name] = i
	}

	last := maxCycle / window
	if last >= maxWindows(len(ss.Keys)) {
		return nil, fmt.Errorf("metrics: cycle %d lies in window %d of %d-cycle windows: more windows than a series can hold", maxCycle, last, window)
	}
	if hi, _ := bits.Mul64(last+1, window); hi != 0 {
		return nil, fmt.Errorf("metrics: cycle %d lies in window %d of %d-cycle windows, which ends past cycle 2^64-1", maxCycle, last, window)
	}
	numWin := int(last) + 1
	ss.Windows = make([]WindowSpan, numWin)
	for w := range ss.Windows {
		ss.Windows[w] = WindowSpan{
			Index: w,
			Start: uint64(w) * window,
			End:   uint64(w+1) * window,
		}
	}
	tail := &ss.Windows[numWin-1]
	tail.Partial = maxCycle+1 < tail.End

	// Second pass. Per-thread cumulative tracking mirrors Totals
	// exactly: samples are cumulative, the first sample of a duplicated
	// name wins within a frame (overlapping groups would double count),
	// and the telescoped deltas of a thread sum to its last frame's
	// values.
	n := len(ss.Names)
	ss.cells = make([]int, len(ss.Keys)*numWin)
	ss.deltas = make([]int64, 0, n*min(len(frames), len(ss.cells)))
	cum := make(map[int][]uint64)
	seen := make([]int, n) // per name, 1 + the last frame that counted it
	for i := range frames {
		f := &frames[i]
		c := keyIndex[key(f)]*numWin + int(f.Cycle/window)
		if ss.cells[c] == 0 {
			ss.cells[c] = len(ss.deltas) + 1
			ss.deltas = append(ss.deltas, make([]int64, n)...)
		}
		deltas := ss.deltas[ss.cells[c]-1:][:n]
		prev := cum[f.TID]
		if prev == nil {
			prev = make([]uint64, n)
			cum[f.TID] = prev
		}
		for j := range f.Samples {
			s := &f.Samples[j]
			id := nameIndex[s.Name]
			if seen[id] == i+1 {
				continue
			}
			seen[id] = i + 1
			deltas[id] += int64(s.Value) - int64(prev[id])
			prev[id] = s.Value
		}
	}
	return ss, nil
}

// cell returns key index k's deltas in window w, in Names order, or
// nil when the key never ran in the window.
func (ss *SeriesSet) cell(k, w int) []int64 {
	off := ss.cells[k*len(ss.Windows)+w]
	if off == 0 {
		return nil
	}
	return ss.deltas[off-1:][:len(ss.Names)]
}

// Delta returns one key's signed per-event deltas for window w, one
// entry per name of the stream (nil for a window in which the key
// never ran).
func (ss *SeriesSet) Delta(key, w int) map[string]int64 {
	k, ok := slices.BinarySearch(ss.Keys, key)
	if !ok || w < 0 || w >= len(ss.Windows) {
		return nil
	}
	deltas := ss.cell(k, w)
	if deltas == nil {
		return nil
	}
	m := make(map[string]int64, len(ss.Names))
	for i, name := range ss.Names {
		m[name] = deltas[i]
	}
	return m
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
	labels := make([]string, len(ss.Keys))
	for k, key := range ss.Keys {
		labels[k] = ss.Split.keyLabel(key)
	}
	// One env serves every row: each row sets every name, and Eval
	// keeps no reference to it.
	env := make(map[string]float64, len(ss.Names))
	for w, win := range ss.Windows {
		for k := range ss.Keys {
			deltas := ss.cell(k, w)
			row := WindowRow{
				Window:  win.Index,
				Start:   win.Start,
				End:     win.End,
				Partial: win.Partial,
				Key:     labels[k],
				Inputs:  make(map[string]int64, len(ss.Names)),
				Metrics: make(map[string]float64, len(defs)),
			}
			for i, name := range ss.Names {
				var d int64
				if deltas != nil {
					d = deltas[i]
				}
				row.Inputs[name] = d
				env[name] = float64(max(d, 0))
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
			line = jsonl.AppendFixed(line, r.Metrics[name], 6)
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
// drift (*telemetry.SchemaError). A negative window index, which no
// writer produces, is an error naming its line.
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
				if w, err = d.Int(); err == nil && w < 0 {
					err = fmt.Errorf("window %d is negative", w)
				}
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
