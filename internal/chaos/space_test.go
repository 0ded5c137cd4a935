package chaos

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestAssembleSoakRejectsWaveMismatch edits one real payload to carry
// an extra wave: assembly must fail with an error naming the job
// instead of indexing past the mix's wave table.
func TestAssembleSoakRejectsWaveMismatch(t *testing.T) {
	cfg := SoakConfig{Seeds: 1, Pool: 2, Waves: 2, Iters: 10, Mixes: DefaultSoakMixes(2)[:2]}
	s := NewSoakSpace(cfg)
	payloads := make([][]byte, s.NumJobs())
	for j := range payloads {
		p, err := s.Run(j, 0)
		if err != nil {
			t.Fatal(err)
		}
		payloads[j] = p
	}
	if _, err := AssembleSoak(cfg, payloads); err != nil {
		t.Fatalf("unedited payloads: %v", err)
	}

	var doc map[string]any
	if err := json.Unmarshal(payloads[1], &doc); err != nil {
		t.Fatal(err)
	}
	doc["waves"] = append(doc["waves"].([]any), map[string]any{"Exact": 1, "Est": 0, "Partial": 0})
	edited, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	payloads[1] = edited
	_, err = AssembleSoak(cfg, payloads)
	if err == nil || !strings.Contains(err.Error(), "job 1 ") {
		t.Fatalf("extra-wave payload: got error %v, want one naming job 1", err)
	}
}
