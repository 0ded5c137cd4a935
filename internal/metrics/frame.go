package metrics

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"limitsim/internal/jsonl"
	"limitsim/internal/kernel"
	"limitsim/internal/pmu"
	"limitsim/internal/telemetry"
)

// Sample is one event's cumulative state within a frame. Name is the
// event name plus a ring suffix: "" for user-only, ":k" kernel-only,
// ":uk" both rings — the names a Def's Inputs list (its printed Expr
// spells '-' as '_').
type Sample struct {
	Name    string `json:"name"`
	Value   uint64 `json:"value"`   // scaled estimate (exact when never multiplexed)
	Enabled uint64 `json:"enabled"` // cycles the owning group was open and scheduled
	Running uint64 `json:"running"` // cycles it was loaded on hardware
}

// Frame is one snapshot of a thread's event groups. The JSON field
// order is fixed by this struct, so a rendered frame stream is
// byte-deterministic given a deterministic simulation. Tenant is the
// owning guest VM, carried only when the tenant layer was active for
// the run (nil otherwise, and omitted from JSON — single-tenant
// streams keep their historical byte shape).
type Frame struct {
	Seq     uint64   `json:"seq"`
	Cycle   uint64   `json:"cycle"`
	TID     int      `json:"tid"`
	Tenant  *int     `json:"tenant,omitempty"`
	Final   bool     `json:"final,omitempty"`
	Samples []Sample `json:"samples"`
}

// TenantID returns the frame's tenant, defaulting to 0 for
// single-tenant streams.
func (f *Frame) TenantID() int {
	if f.Tenant == nil {
		return 0
	}
	return *f.Tenant
}

// sampleNames holds every sample name by event and ring filter: user
// only, kernel only, both rings. FromKernel takes names from it rather
// than building a string per sample.
var sampleNames = func() (t [pmu.NumEvents][3]string) {
	for ev := range t {
		name := pmu.Event(ev).String()
		t[ev] = [3]string{name, name + ":k", name + ":uk"}
	}
	return t
}()

// SampleName renders a kernel group event as a sample name.
func SampleName(ge kernel.GroupEvent) string {
	ring := 0
	switch {
	case ge.CountUser && ge.CountKernel:
		ring = 2
	case ge.CountKernel:
		ring = 1
	}
	return sampleNames[ge.Event][ring]
}

// FromKernel converts the kernel's frame log into the metric engine's
// frame form. Tenant ids ride along only when the run's tenant layer
// was active (Config.Tenants > 1). Every frame's samples are a capped
// slice of one backing array, and every tenant id an element of
// another.
func FromKernel(k *kernel.Kernel) []Frame {
	kf := k.Frames()
	total := 0
	for i := range kf {
		total += len(kf[i].Samples)
	}
	samples := make([]Sample, total)
	var tenants []int
	if k.Config().Tenants > 1 {
		tenants = make([]int, len(kf))
	}
	out := make([]Frame, len(kf))
	for i := range kf {
		f := &kf[i]
		nf := &out[i]
		*nf = Frame{Seq: f.Seq, Cycle: f.Cycle, TID: f.TID, Final: f.Final}
		if tenants != nil {
			tenants[i] = f.Tenant
			nf.Tenant = &tenants[i]
		}
		n := len(f.Samples)
		nf.Samples, samples = samples[:n:n], samples[n:]
		for j, s := range f.Samples {
			nf.Samples[j] = Sample{
				Name:    SampleName(s.Event),
				Value:   s.Estimate,
				Enabled: s.Enabled,
				Running: s.Running,
			}
		}
	}
	return out
}

// WriteJSONL renders frames one JSON object per line, byte for byte as
// json.Encoder renders a Frame. Output is byte-deterministic: fixed
// field order, integer values only.
func WriteJSONL(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range frames {
		line = appendFrame(line[:0], &frames[i])
		bw.Write(line) // a write error sticks; Flush returns it
	}
	return bw.Flush()
}

func appendFrame(b []byte, f *Frame) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, f.Seq, 10)
	b = append(b, `,"cycle":`...)
	b = strconv.AppendUint(b, f.Cycle, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(f.TID), 10)
	if f.Tenant != nil {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendInt(b, int64(*f.Tenant), 10)
	}
	if f.Final {
		b = append(b, `,"final":true`...)
	}
	if f.Samples == nil {
		return append(b, `,"samples":null}`+"\n"...)
	}
	b = append(b, `,"samples":[`...)
	for i := range f.Samples {
		s := &f.Samples[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = jsonl.AppendString(b, s.Name)
		b = append(b, `,"value":`...)
		b = strconv.AppendUint(b, s.Value, 10)
		b = append(b, `,"enabled":`...)
		b = strconv.AppendUint(b, s.Enabled, 10)
		b = append(b, `,"running":`...)
		b = strconv.AppendUint(b, s.Running, 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// The JSONL schemas of a frame and a sample; the constants index their
// fields.
var (
	frameSchema  = jsonl.NewSchema([]string{"seq", "cycle", "tid", "samples"}, "tenant", "final")
	sampleSchema = jsonl.NewSchema([]string{"name", "value", "enabled", "running"})
)

const (
	fSeq = iota
	fCycle
	fTID
	fSamples
	fTenant
	fFinal
)

const (
	sName = iota
	sValue
	sEnabled
	sRunning
)

// lineError maps the error on one line of a stream (a decode error, or
// the reader's failure to deliver the line) to the parse contract. Schema drift (an unknown, duplicate or missing field)
// becomes the same *telemetry.SchemaError the registry merge raises, so
// fleet and report consumers distinguish drift (a versioning bug) from
// ordinary I/O failures with one errors.As; malformed JSON stays an
// ordinary error.
func lineError(stream string, line int, err error) error {
	var fe *jsonl.FieldError
	if errors.As(err, &fe) {
		return &telemetry.SchemaError{
			Kind:   "frame",
			Name:   fmt.Sprintf("line %d", line),
			Detail: err.Error(),
		}
	}
	return fmt.Errorf("metrics: %s line %d: %w", stream, line, err)
}

// interner returns one string per distinct name, so a parsed stream
// holds each name once however many lines repeat it.
type interner map[string]string

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// ParseJSONL reads a frame stream written by WriteJSONL. Parsing is
// strict: an unknown, duplicate or missing required field is schema
// drift and fails with a *telemetry.SchemaError naming the line;
// malformed JSON, including bytes after a line's object, fails with an
// ordinary error. Nothing is silently skipped or defaulted.
func ParseJSONL(r io.Reader) ([]Frame, error) {
	var (
		out   []Frame
		d     jsonl.Decoder
		names = interner{}
		hint  int // the previous frame's sample count
	)
	line, err := jsonl.ReadLines(r, func(b []byte) error {
		d.Reset(b)
		f := Frame{Samples: make([]Sample, 0, hint)}
		err := d.Object(frameSchema, func(i int) error {
			var err error
			switch i {
			case fSeq:
				f.Seq, err = d.Uint()
			case fCycle:
				f.Cycle, err = d.Uint()
			case fTID:
				var tid int64
				tid, err = d.Int()
				f.TID = int(tid)
			case fTenant:
				var tenant int64
				tenant, err = d.Int()
				t := int(tenant)
				f.Tenant = &t
			case fFinal:
				f.Final, err = d.Bool()
			case fSamples:
				err = d.Array(func(n int) error {
					var s Sample
					if err := parseSample(&d, &s, names); err != nil {
						return fmt.Errorf("sample %d: %w", n, err)
					}
					f.Samples = append(f.Samples, s)
					return nil
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
		hint = len(f.Samples)
		out = append(out, f)
		return nil
	})
	if err != nil {
		return nil, lineError("frames", line, err)
	}
	return out, nil
}

func parseSample(d *jsonl.Decoder, s *Sample, names interner) error {
	return d.Object(sampleSchema, func(i int) error {
		var err error
		switch i {
		case sName:
			var b []byte
			b, err = d.StringBytes()
			s.Name = names.intern(b)
		case sValue:
			s.Value, err = d.Uint()
		case sEnabled:
			s.Enabled, err = d.Uint()
		case sRunning:
			s.Running, err = d.Uint()
		}
		return err
	})
}

// Merge combines frame streams from several runs or shards into one
// canonically ordered stream: by cycle, then thread, then sequence.
// The sort is stable, so equal keys keep their input order and merge
// output is byte-deterministic for deterministic inputs.
func Merge(streams ...[]Frame) []Frame {
	var all []Frame
	for _, s := range streams {
		all = append(all, s...)
	}
	slices.SortStableFunc(all, func(a, b Frame) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.TID, b.TID), cmp.Compare(a.Seq, b.Seq))
	})
	return all
}

// Totals folds a frame stream into per-event end-of-run totals summed
// across threads: for each thread the last frame wins (samples are
// cumulative), and within a frame the first sample of a name wins
// (groups may duplicate an event; their windows overlap, so adding
// them would double count).
func Totals(frames []Frame) map[string]uint64 {
	last := make(map[int]*Frame)
	var tids []int
	for i := range frames {
		f := &frames[i]
		if _, seen := last[f.TID]; !seen {
			tids = append(tids, f.TID)
		}
		last[f.TID] = f
	}
	sort.Ints(tids)
	totals := make(map[string]uint64)
	for _, tid := range tids {
		seen := make(map[string]bool)
		for _, s := range last[tid].Samples {
			if seen[s.Name] {
				continue
			}
			seen[s.Name] = true
			totals[s.Name] += s.Value
		}
	}
	return totals
}

// Env converts totals into the sample values Def.Eval reads.
func Env(totals map[string]uint64) map[string]float64 {
	env := make(map[string]float64, len(totals))
	for k, v := range totals {
		env[k] = float64(v)
	}
	return env
}
