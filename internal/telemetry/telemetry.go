// Package telemetry is the harness's self-metrics layer: monotonic
// counters, level gauges with high-water marks, and fixed-bucket cycle
// histograms, collected in a named registry. It exists so the simulated
// kernel, PMU and LiMiT library can measure *themselves* — fixup-rewind
// frequency, PMI delivery latency, context-switch cost, slot-ledger
// pressure — the same way LiMiT lets applications measure themselves.
//
// Discipline (mirrors the trace package): instrumentation is attached
// explicitly and every instrumented hot path pays exactly one nil check
// when telemetry is disabled. Metric handles are plain structs updated
// by direct field access — no locks, no maps, no allocation on the
// update path — which is safe because the simulation is single-
// threaded and deterministic. All reports derived from a registry are
// byte-deterministic for a given run: metrics render in registration
// order and all arithmetic is integral until presentation.
//
// The package depends only on the standard library and the
// stdlib-only internal/jsonl string encoder, so that any layer (kernel,
// limit, chaos, cmds) can import it without cycles.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"limitsim/internal/jsonl"
)

// Counter is a monotonic event count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge tracks a current level and its high-water mark (e.g. slot-
// ledger occupancy). Levels may go up and down; the peak only rises.
type Gauge struct{ v, peak int64 }

// Add moves the level by d (negative to release).
func (g *Gauge) Add(d int64) {
	g.v += d
	if g.v > g.peak {
		g.peak = g.v
	}
}

// Set forces the level (peak still only rises).
func (g *Gauge) Set(v int64) {
	g.v = v
	if g.v > g.peak {
		g.peak = g.v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak }

// Histogram counts observations into fixed buckets. Bucket i counts
// values v with v <= bounds[i] (and greater than bounds[i-1]); one
// implicit overflow bucket catches everything above the last bound.
// Fixed bounds keep observation O(buckets) worst case with no
// allocation, and make merged histograms exact.
type Histogram struct {
	bounds []uint64
	counts []uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// DefaultCycleBounds covers kernel-path costs from a handful of cycles
// to a full scheduler quantum.
var DefaultCycleBounds = []uint64{
	50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000,
	20_000, 50_000, 100_000, 300_000, 1_000_000,
}

// NewHistogram builds a histogram over ascending bucket bounds (nil
// uses DefaultCycleBounds).
func NewHistogram(bounds []uint64) *Histogram {
	if bounds == nil {
		bounds = DefaultCycleBounds
	}
	if i := notAscending(bounds); i > 0 {
		panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// notAscending returns the first index whose bound does not exceed the
// one before it, or 0 when the bounds strictly ascend.
func notAscending(bounds []uint64) int {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return i
		}
	}
	return 0
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// BucketCounts returns the per-bucket counts (last entry is the
// overflow bucket).
func (h *Histogram) BucketCounts() []uint64 { return h.counts }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// bound of the bucket in which that observation rank falls (Max for
// the overflow bucket). Exact enough for reports; never understates.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// checkBounds verifies o is mergeable into h (identical bucket bounds);
// the returned detail slots into a SchemaError.
func (h *Histogram) checkBounds(o *Histogram) string {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Sprintf("%d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Sprintf("bound %d differs (%d vs %d)", i, h.bounds[i], o.bounds[i])
		}
	}
	return ""
}

// merge folds o into h; the caller has already checked bounds.
func (h *Histogram) merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Registry holds named metrics in registration order. Names are
// dot-separated paths ("kern.switch.out.cycles"); registration order is
// the render order, so identical construction yields identical reports.
type Registry struct {
	counters   []*Counter
	counterIDs []string
	gauges     []*Gauge
	gaugeIDs   []string
	hists      []*Histogram
	histIDs    []string
	index      map[string]int // name -> kind-tagged index
}

const (
	kindCounter = iota
	kindGauge
	kindHist
	kindShift = 2
	kindMask  = 1<<kindShift - 1
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

func (r *Registry) register(name string, kind int) {
	if _, dup := r.index[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	var n int
	switch kind {
	case kindCounter:
		n = len(r.counterIDs)
	case kindGauge:
		n = len(r.gaugeIDs)
	case kindHist:
		n = len(r.histIDs)
	}
	r.index[name] = n<<kindShift | kind
}

// Counter registers and returns a named counter.
func (r *Registry) Counter(name string) *Counter {
	r.register(name, kindCounter)
	c := &Counter{}
	r.counters = append(r.counters, c)
	r.counterIDs = append(r.counterIDs, name)
	return c
}

// Gauge registers and returns a named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.register(name, kindGauge)
	g := &Gauge{}
	r.gauges = append(r.gauges, g)
	r.gaugeIDs = append(r.gaugeIDs, name)
	return g
}

// Histogram registers and returns a named histogram (nil bounds:
// DefaultCycleBounds).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.register(name, kindHist)
	h := NewHistogram(bounds)
	r.hists = append(r.hists, h)
	r.histIDs = append(r.histIDs, name)
	return h
}

// Names returns the registered metric names by kind, each in
// registration order — the iteration hook report builders pair with
// Lookup* to render a registry without reaching into its internals.
func (r *Registry) Names() (counters, gauges, hists []string) {
	return r.counterIDs, r.gaugeIDs, r.histIDs
}

// LookupCounter returns the named counter, or nil.
func (r *Registry) LookupCounter(name string) *Counter {
	if i, ok := r.index[name]; ok && i&kindMask == kindCounter {
		return r.counters[i>>kindShift]
	}
	return nil
}

// LookupGauge returns the named gauge, or nil.
func (r *Registry) LookupGauge(name string) *Gauge {
	if i, ok := r.index[name]; ok && i&kindMask == kindGauge {
		return r.gauges[i>>kindShift]
	}
	return nil
}

// LookupHistogram returns the named histogram, or nil.
func (r *Registry) LookupHistogram(name string) *Histogram {
	if i, ok := r.index[name]; ok && i&kindMask == kindHist {
		return r.hists[i>>kindShift]
	}
	return nil
}

// SchemaError reports a registry merge whose source schema drifted
// from the target's: a metric missing on either side, registered under
// a different kind, or a histogram with different bucket bounds. It is
// a typed error so campaign engines can distinguish schema drift (a
// programming error in per-run registry construction — the merge moved
// nothing) from ordinary failures, and fail loudly instead of
// aggregating a silently incomplete report.
type SchemaError struct {
	// Kind is the metric kind in the registry that has it ("counter",
	// "gauge", "histogram").
	Kind string
	// Name is the drifting metric's name.
	Name string
	// Detail says what drifted (which side lacks it, or how histogram
	// bounds differ).
	Detail string
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("telemetry: merge schema drift on %s %q: %s", e.Kind, e.Name, e.Detail)
}

// Merge folds o's metrics into r, matching by name. The schemas must
// be identical — every metric present on both sides with the same kind
// and histogram bounds — because merged registries are meant to be
// built by the same constructor, as the campaign engines do per run. A
// drifted schema returns a *SchemaError and r is left unmodified: the
// whole schema is validated before any counts move.
func (r *Registry) Merge(o *Registry) error {
	for _, name := range o.counterIDs {
		if r.LookupCounter(name) == nil {
			return &SchemaError{Kind: "counter", Name: name, Detail: "missing from merge target"}
		}
	}
	for _, name := range o.gaugeIDs {
		if r.LookupGauge(name) == nil {
			return &SchemaError{Kind: "gauge", Name: name, Detail: "missing from merge target"}
		}
	}
	for i, name := range o.histIDs {
		h := r.LookupHistogram(name)
		if h == nil {
			return &SchemaError{Kind: "histogram", Name: name, Detail: "missing from merge target"}
		}
		if detail := h.checkBounds(o.hists[i]); detail != "" {
			return &SchemaError{Kind: "histogram", Name: name, Detail: detail}
		}
	}
	for _, name := range r.counterIDs {
		if o.LookupCounter(name) == nil {
			return &SchemaError{Kind: "counter", Name: name, Detail: "missing from merge source"}
		}
	}
	for _, name := range r.gaugeIDs {
		if o.LookupGauge(name) == nil {
			return &SchemaError{Kind: "gauge", Name: name, Detail: "missing from merge source"}
		}
	}
	for _, name := range r.histIDs {
		if o.LookupHistogram(name) == nil {
			return &SchemaError{Kind: "histogram", Name: name, Detail: "missing from merge source"}
		}
	}
	for i, name := range o.counterIDs {
		r.LookupCounter(name).Add(o.counters[i].Value())
	}
	for i, name := range o.gaugeIDs {
		g := r.LookupGauge(name)
		// Residual levels add; the merged peak is the max of peaks.
		// Both operations are commutative and associative, so a
		// campaign merge is order-independent — the keyed post-barrier
		// merge order is a presentation convention, not a correctness
		// requirement.
		g.v += o.gauges[i].v
		if o.gauges[i].peak > g.peak {
			g.peak = o.gauges[i].peak
		}
	}
	for i, name := range o.histIDs {
		r.LookupHistogram(name).merge(o.hists[i])
	}
	return nil
}

// MustMerge is Merge but panics on mismatch (registries built by the
// same constructor cannot mismatch; a mismatch is a programming error).
func (r *Registry) MustMerge(o *Registry) {
	if err := r.Merge(o); err != nil {
		panic(err)
	}
}

// Reset zeroes every registered metric in place, preserving the schema
// and registration order. The runner's worker pools use it to reuse
// one per-run registry (and its instrumented metric handles) across
// many runs instead of reconstructing the whole metric set each time.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		*g = Gauge{}
	}
	for _, h := range r.hists {
		clear(h.counts)
		h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	}
}

// Render writes the registry as an aligned text block: counters and
// gauges first, then one row per histogram with count/mean/min/p50/
// p99/max. Deterministic: registration order, integral values.
func (r *Registry) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(r.counterIDs)+len(r.gaugeIDs) > 0 {
		fmt.Fprintln(tw, "metric\tvalue\tpeak")
		fmt.Fprintln(tw, "------\t-----\t----")
		for i, name := range r.counterIDs {
			fmt.Fprintf(tw, "%s\t%d\t-\n", name, r.counters[i].Value())
		}
		for i, name := range r.gaugeIDs {
			fmt.Fprintf(tw, "%s\t%d\t%d\n", name, r.gauges[i].Value(), r.gauges[i].Peak())
		}
	}
	tw.Flush()
	if len(r.histIDs) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "histogram (cycles)\tcount\tmean\tmin\tp50\tp99\tmax")
		fmt.Fprintln(tw, "-----------------\t-----\t----\t---\t---\t---\t---")
		for i, name := range r.histIDs {
			h := r.hists[i]
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\n",
				name, h.Count(), meanString(h), h.Min(),
				h.Quantile(0.50), h.Quantile(0.99), h.Max())
		}
		tw.Flush()
	}
}

// meanString renders a histogram mean with one decimal, trimming ".0"
// so integral means stay integral in reports.
func meanString(h *Histogram) string {
	s := fmt.Sprintf("%.1f", h.Mean())
	return strings.TrimSuffix(s, ".0")
}

// WriteJSONL emits the registry as JSON lines, one metric per line, in
// registration order — the tool-consumable form of Render. Names are
// escaped as JSON strings, so any name ParseJSONL accepts writes back
// as valid JSON. Counters:
// {"type":"counter","name":...,"value":N}. Gauges add "peak".
// Histograms carry counts, sum, min/max and explicit buckets.
func (r *Registry) WriteJSONL(w io.Writer) error {
	for i, name := range r.counterIDs {
		if _, err := fmt.Fprintf(w, "{\"type\":\"counter\",\"name\":%s,\"value\":%d}\n",
			jsonl.AppendString(nil, name), r.counters[i].Value()); err != nil {
			return err
		}
	}
	for i, name := range r.gaugeIDs {
		if _, err := fmt.Fprintf(w, "{\"type\":\"gauge\",\"name\":%s,\"value\":%d,\"peak\":%d}\n",
			jsonl.AppendString(nil, name), r.gauges[i].Value(), r.gauges[i].Peak()); err != nil {
			return err
		}
	}
	for i, name := range r.histIDs {
		h := r.hists[i]
		var sb strings.Builder
		fmt.Fprintf(&sb, "{\"type\":\"histogram\",\"name\":%s,\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"bounds\":[",
			jsonl.AppendString(nil, name), h.Count(), h.Sum(), h.Min(), h.Max())
		for j, b := range h.bounds {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", b)
		}
		sb.WriteString("],\"counts\":[")
		for j, c := range h.counts {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", c)
		}
		sb.WriteString("]}\n")
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
