package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"limitsim/internal/jsonl"
)

// jsonlMetric is the parse shape for one WriteJSONL line. Pointer
// fields distinguish absent from zero so required-field checks can
// name what is missing.
type jsonlMetric struct {
	Type string `json:"type"`
	Name string `json:"name"`
	// Value is a counter's uint64 or a gauge's int64; kept raw and
	// converted per type.
	Value  *json.Number `json:"value"`
	Peak   *int64       `json:"peak"`
	Count  *uint64      `json:"count"`
	Sum    *uint64      `json:"sum"`
	Min    *uint64      `json:"min"`
	Max    *uint64      `json:"max"`
	Bounds []uint64     `json:"bounds"`
	Counts []uint64     `json:"counts"`
}

// ParseJSONL reconstructs a registry from its WriteJSONL form: one
// metric per line, in registration order. The result is a full
// Registry — mergeable with Merge (schema drift between two parsed
// files surfaces as the usual *SchemaError), renderable with Render,
// re-emittable with WriteJSONL. The round trip is exact: every stored
// quantity is integral.
//
// Malformed input — bad JSON, an unknown metric type, a duplicate
// name, a histogram whose bounds do not strictly ascend or whose
// counts do not line up with them — fails with an error naming the
// line; nothing is ever silently skipped or defaulted.
func ParseJSONL(r io.Reader) (*Registry, error) {
	reg := NewRegistry()
	line, err := jsonl.ReadLines(r, func(raw []byte) error {
		var m jsonlMetric
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		if m.Name == "" {
			return errors.New("missing metric name")
		}
		if _, dup := reg.index[m.Name]; dup {
			return fmt.Errorf("duplicate metric %q", m.Name)
		}
		switch m.Type {
		case "counter":
			if m.Value == nil {
				return fmt.Errorf("counter %q missing value", m.Name)
			}
			v, err := strconv.ParseUint(m.Value.String(), 10, 64)
			if err != nil {
				return fmt.Errorf("counter %q value: %w", m.Name, err)
			}
			reg.Counter(m.Name).v = v
		case "gauge":
			if m.Value == nil || m.Peak == nil {
				return fmt.Errorf("gauge %q missing value/peak", m.Name)
			}
			v, err := m.Value.Int64()
			if err != nil {
				return fmt.Errorf("gauge %q value: %w", m.Name, err)
			}
			g := reg.Gauge(m.Name)
			g.v = v
			g.peak = *m.Peak
		case "histogram":
			if m.Count == nil || m.Sum == nil || m.Min == nil || m.Max == nil {
				return fmt.Errorf("histogram %q missing count/sum/min/max", m.Name)
			}
			if len(m.Bounds) == 0 || len(m.Counts) != len(m.Bounds)+1 {
				return fmt.Errorf("histogram %q has %d counts for %d bounds (want bounds+1)",
					m.Name, len(m.Counts), len(m.Bounds))
			}
			if i := notAscending(m.Bounds); i > 0 {
				return fmt.Errorf("histogram %q bounds not ascending at %d", m.Name, i)
			}
			var total uint64
			for _, c := range m.Counts {
				total += c
			}
			if total != *m.Count {
				return fmt.Errorf("histogram %q bucket counts sum to %d, count says %d",
					m.Name, total, *m.Count)
			}
			h := reg.Histogram(m.Name, m.Bounds)
			copy(h.counts, m.Counts)
			h.n, h.sum, h.min, h.max = *m.Count, *m.Sum, *m.Min, *m.Max
		default:
			return fmt.Errorf("unknown metric type %q", m.Type)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
	}
	return reg, nil
}
