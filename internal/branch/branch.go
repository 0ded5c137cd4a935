// Package branch models per-core branch direction predictors. Two
// designs are provided: a simple bimodal table of two-bit saturating
// counters, and a gshare predictor (global history XOR PC). The CPU
// charges a fixed mispredict penalty when prediction and outcome
// disagree.
package branch

// Predictor predicts branch directions and learns from outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
}

// Bimodal is a table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	table []uint8
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^bits entries,
// initialized to weakly not-taken.
func NewBimodal(bits uint) *Bimodal {
	n := uint64(1) << bits
	return &Bimodal{table: make([]uint8, n), mask: n - 1}
}

// Predict implements Predictor.
func (p *Bimodal) Predict(pc uint64) bool { return p.table[pc&p.mask] >= 2 }

// Update implements Predictor.
func (p *Bimodal) Update(pc uint64, taken bool) {
	e := &p.table[pc&p.mask]
	if taken {
		if *e < 3 {
			*e++
		}
	} else if *e > 0 {
		*e--
	}
}

// Gshare XORs a global history register with the PC to index a table of
// 2-bit counters.
type Gshare struct {
	table   []uint8
	mask    uint64
	history uint64
	histLen uint
}

// NewGshare returns a gshare predictor with 2^bits entries and a
// history length of min(bits, 16).
func NewGshare(bits uint) *Gshare {
	n := uint64(1) << bits
	hl := bits
	if hl > 16 {
		hl = 16
	}
	return &Gshare{table: make([]uint8, n), mask: n - 1, histLen: hl}
}

// Reset returns the predictor to the state NewGshare built: every
// counter weakly not-taken (zero) and an empty history.
func (p *Gshare) Reset() {
	clear(p.table)
	p.history = 0
}

func (p *Gshare) index(pc uint64) uint64 { return (pc ^ p.history) & p.mask }

// Predict implements Predictor.
func (p *Gshare) Predict(pc uint64) bool { return p.table[p.index(pc)] >= 2 }

// Update implements Predictor.
func (p *Gshare) Update(pc uint64, taken bool) {
	e := &p.table[p.index(pc)]
	if taken {
		if *e < 3 {
			*e++
		}
	} else if *e > 0 {
		*e--
	}
	p.history = ((p.history << 1) | b2u(taken)) & ((1 << p.histLen) - 1)
}

// PredictUpdate is Predict followed by Update in one call: both use
// the same table entry (history only shifts afterwards), so the fused
// form indexes once. The interpreter's branch path calls this directly
// to skip two interface dispatches per branch.
func (p *Gshare) PredictUpdate(pc uint64, taken bool) bool {
	e := &p.table[p.index(pc)]
	predicted := *e >= 2
	if taken {
		if *e < 3 {
			*e++
		}
	} else if *e > 0 {
		*e--
	}
	p.history = ((p.history << 1) | b2u(taken)) & ((1 << p.histLen) - 1)
	return predicted
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AlwaysTaken is a trivial predictor used in tests and ablations.
type AlwaysTaken struct{}

// Predict implements Predictor.
func (AlwaysTaken) Predict(uint64) bool { return true }

// Update implements Predictor.
func (AlwaysTaken) Update(uint64, bool) {}
