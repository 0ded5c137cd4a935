package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxFrameLen)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m jsonlMetric
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
		}
		if m.Name == "" {
			return nil, fmt.Errorf("telemetry: jsonl line %d: missing metric name", line)
		}
		if _, dup := reg.index[m.Name]; dup {
			return nil, fmt.Errorf("telemetry: jsonl line %d: duplicate metric %q", line, m.Name)
		}
		switch m.Type {
		case "counter":
			if m.Value == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: counter %q missing value", line, m.Name)
			}
			v, err := strconv.ParseUint(m.Value.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: counter %q value: %w", line, m.Name, err)
			}
			reg.Counter(m.Name).v = v
		case "gauge":
			if m.Value == nil || m.Peak == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: gauge %q missing value/peak", line, m.Name)
			}
			v, err := m.Value.Int64()
			if err != nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: gauge %q value: %w", line, m.Name, err)
			}
			g := reg.Gauge(m.Name)
			g.v = v
			g.peak = *m.Peak
		case "histogram":
			if m.Count == nil || m.Sum == nil || m.Min == nil || m.Max == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: histogram %q missing count/sum/min/max", line, m.Name)
			}
			if len(m.Bounds) == 0 || len(m.Counts) != len(m.Bounds)+1 {
				return nil, fmt.Errorf("telemetry: jsonl line %d: histogram %q has %d counts for %d bounds (want bounds+1)",
					line, m.Name, len(m.Counts), len(m.Bounds))
			}
			if i := notAscending(m.Bounds); i > 0 {
				return nil, fmt.Errorf("telemetry: jsonl line %d: histogram %q bounds not ascending at %d", line, m.Name, i)
			}
			var total uint64
			for _, c := range m.Counts {
				total += c
			}
			if total != *m.Count {
				return nil, fmt.Errorf("telemetry: jsonl line %d: histogram %q bucket counts sum to %d, count says %d",
					line, m.Name, total, *m.Count)
			}
			h := reg.Histogram(m.Name, m.Bounds)
			copy(h.counts, m.Counts)
			h.n, h.sum, h.min, h.max = *m.Count, *m.Sum, *m.Min, *m.Max
		default:
			return nil, fmt.Errorf("telemetry: jsonl line %d: unknown metric type %q", line, m.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
	}
	return reg, nil
}
