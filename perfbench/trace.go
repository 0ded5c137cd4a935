package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"limitsim/internal/trace"
)

// span is one timed call into a simulator layer. Times are host ns
// since the tracer started. Spans of one iteration share its root
// "iteration" span, reached through parent links.
type span struct {
	name       string
	tid        int // 0 = the benchmark goroutine, 1+w = runner worker w
	parent     int // index of the enclosing span, -1 for a root
	start, end int64
	// alloc is the bytes allocated between begin and end, for spans on
	// the benchmark goroutine below a root (runtime.ReadMemStats
	// brackets, taken outside the timed interval); -1 otherwise.
	alloc int64
	// calib is the calibration reading of the block a root ran in.
	calib float64
}

// tracer keeps spans in memory for the traced pass; a nil *tracer
// records nothing, so the untraced pass pays one nil check per call.
type tracer struct {
	mu    sync.Mutex // runner workers record job spans concurrently
	t0    time.Time
	spans []span
	open  int // innermost open span on the benchmark goroutine
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// begin opens a span on the benchmark goroutine, nested in the
// innermost open one, and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	alloc := int64(-1)
	if t.open >= 0 {
		alloc = totalAlloc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: t.open, alloc: alloc, start: t.now()})
	t.open = len(t.spans) - 1
	return t.open
}

// beginWorker opens a span for runner worker w under parent.
func (t *tracer) beginWorker(name string, w, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, tid: 1 + w, parent: parent, alloc: -1, start: t.now()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	s := &t.spans[i]
	s.end = now
	bracketed := s.alloc >= 0
	if s.tid == 0 {
		t.open = s.parent
	}
	t.mu.Unlock()
	if bracketed {
		a := totalAlloc()
		t.mu.Lock()
		t.spans[i].alloc = a - t.spans[i].alloc
		t.mu.Unlock()
	}
}

// setCalib records the calibration reading a root span ran under.
func (t *tracer) setCalib(root int, calib float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[root].calib = calib
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval covered by the union of its children.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// roots returns, for each span, the index of its iteration root.
func roots(spans []span) []int {
	r := make([]int, len(spans))
	for i, s := range spans {
		if s.parent < 0 {
			r[i] = i
		} else {
			r[i] = r[s.parent] // parents are recorded before their children
		}
	}
	return r
}

// chromeSpans converts spans to the trace package's span form: host ns
// in the cycle fields, written with cyclesPerUsec=1000 so timestamps
// read as microseconds.
func chromeSpans(spans []span) []trace.Span {
	out := make([]trace.Span, len(spans))
	for i, s := range spans {
		out[i] = trace.Span{Name: s.name, TID: s.tid, StartCycle: uint64(s.start), DurCycles: uint64(s.end - s.start)}
	}
	return out
}

// writeTrace writes spans as a Perfetto-loadable Chrome trace file.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.WriteChromeSpans(bw, chromeSpans(spans), 1000); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
