package branch

import (
	"reflect"
	"testing"
)

func trainAndCount(p Predictor, pattern []bool, reps int) (mispredicts int) {
	pc := uint64(0x40)
	for r := 0; r < reps; r++ {
		for _, taken := range pattern {
			if p.Predict(pc) != taken {
				mispredicts++
			}
			p.Update(pc, taken)
		}
	}
	return
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(10)
	// A 100%-taken branch: after warmup, zero mispredicts.
	m := trainAndCount(p, []bool{true}, 100)
	if m > 2 {
		t.Errorf("bimodal mispredicted %d/100 on an always-taken branch", m)
	}
}

func TestBimodalHysteresis(t *testing.T) {
	p := NewBimodal(10)
	pc := uint64(0x80)
	// Saturate taken.
	for i := 0; i < 4; i++ {
		p.Update(pc, true)
	}
	// One not-taken must not flip the prediction (2-bit hysteresis).
	p.Update(pc, false)
	if !p.Predict(pc) {
		t.Error("one contrary outcome flipped a saturated 2-bit counter")
	}
	p.Update(pc, false)
	if p.Predict(pc) {
		t.Error("two contrary outcomes should flip the prediction")
	}
}

func TestBimodalPoorOnAlternating(t *testing.T) {
	p := NewBimodal(10)
	m := trainAndCount(p, []bool{true, false}, 100)
	// Alternating defeats a bimodal predictor (it hovers mid-state).
	if m < 50 {
		t.Errorf("bimodal mispredicted only %d/200 on alternating; model too strong", m)
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	p := NewGshare(12)
	m := trainAndCount(p, []bool{true, false}, 200)
	// History lets gshare lock onto the period-2 pattern.
	if m > 40 {
		t.Errorf("gshare mispredicted %d/400 on alternating; history not working", m)
	}
}

func TestGshareLearnsLongerPattern(t *testing.T) {
	p := NewGshare(12)
	m := trainAndCount(p, []bool{true, true, false, true, false, false}, 200)
	if m > 200 {
		t.Errorf("gshare mispredicted %d/1200 on period-6 pattern", m)
	}
}

func TestPredictorsIndependentPCs(t *testing.T) {
	p := NewBimodal(10)
	p.Update(0x10, true)
	p.Update(0x10, true)
	if p.Predict(0x11) {
		t.Error("training one PC must not bias a different table entry")
	}
}

func TestAlwaysTaken(t *testing.T) {
	var p AlwaysTaken
	if !p.Predict(0) {
		t.Error("AlwaysTaken must predict taken")
	}
	p.Update(0, false) // must not panic
}

// Reset returns a trained gshare predictor to exactly what NewGshare
// builds, and it then predicts as a new one does.
func TestGshareResetEqualsNew(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false, true}
	p := NewGshare(10)
	trainAndCount(p, pattern, 50)
	if p.history == 0 {
		t.Fatal("training left an empty history")
	}
	p.Reset()
	fresh := NewGshare(10)
	if !reflect.DeepEqual(p, fresh) {
		t.Fatalf("Reset left history %#x and a table differing from NewGshare's", p.history)
	}
	if a, b := trainAndCount(p, pattern, 20), trainAndCount(fresh, pattern, 20); a != b {
		t.Errorf("after Reset: %d mispredicts, a new predictor %d", a, b)
	}
}
