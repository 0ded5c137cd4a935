package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"limitsim/internal/jsonl"
)

// FindingRecord is the wire form of one ranked finding — the exact
// shape WriteJSONL emits, parseable back with ParseJSONL so report
// assemblers consume profiler output from disk without rerunning the
// simulation.
type FindingRecord struct {
	Rank        int      `json:"rank"`
	Region      string   `json:"region"`
	Kind        string   `json:"kind"`
	Class       string   `json:"class"`
	Share       float64  `json:"share"`
	Count       uint64   `json:"count"`
	Self        []uint64 `json:"self"`
	Min         uint64   `json:"min"`
	Max         uint64   `json:"max"`
	MeanCycles  float64  `json:"mean_cycles"`
	KernelShare float64  `json:"kernel_share"`
	L1DPerKC    float64  `json:"l1d_per_kc"`
	BrMissPerKC float64  `json:"brmiss_per_kc"`
}

// SelfCostRecord is the trailing self-cost disclosure line of a
// WriteJSONL stream.
type SelfCostRecord struct {
	SelfCycles      float64 `json:"profiler_self_cycles"`
	PairVsBareRatio float64 `json:"pair_vs_bare_ratio"`
}

// Records converts the report's findings into their wire form, rank
// order, without a serialization round trip.
func (rep *Report) Records() []FindingRecord {
	out := make([]FindingRecord, len(rep.Findings))
	for i, f := range rep.Findings {
		out[i] = FindingRecord{
			Rank:        i + 1,
			Region:      f.Region.Path,
			Kind:        f.Region.Kind.String(),
			Class:       string(f.Class),
			Share:       f.Share,
			Count:       f.Region.Count,
			Self:        f.SelfSums,
			Min:         f.Region.Min,
			Max:         f.Region.Max,
			MeanCycles:  f.MeanCycles,
			KernelShare: f.KernelShare,
			L1DPerKC:    f.L1DPerKC,
			BrMissPerKC: f.BrMissPerKC,
		}
	}
	return out
}

// ParseJSONL reads a WriteJSONL stream back: the ranked findings in
// order plus the trailing self-cost record (nil when the stream ends
// without one). Lines that are neither shape fail with an error naming
// the line.
func ParseJSONL(r io.Reader) ([]FindingRecord, *SelfCostRecord, error) {
	var out []FindingRecord
	var self *SelfCostRecord
	line, err := jsonl.ReadLines(r, func(b []byte) error {
		if self != nil {
			return errors.New("content after the self-cost record")
		}
		// The self-cost record is the only line without a region.
		var probe struct {
			Region *string `json:"region"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			return err
		}
		if probe.Region == nil {
			self = new(SelfCostRecord)
			return json.Unmarshal(b, self)
		}
		var rec FindingRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: jsonl line %d: %w", line, err)
	}
	return out, self, nil
}
