package jsonl

import (
	"math"
	"strconv"
	"testing"
)

// checkFixed compares AppendFixed with strconv's 'f' formatting.
func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x"), v, 'f', prec, 64)
	if got := AppendFixed([]byte("x"), v, prec); string(got) != string(want) {
		t.Errorf("AppendFixed(%v [%#x], %d) = %q, want %q", v, math.Float64bits(v), prec, got, want)
	}
}

func TestAppendFixedKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		v    float64
		prec int
		want string
	}{
		{0.125, 2, "0.12"}, // a tie goes to the even digit
		{0.375, 2, "0.38"},
		{0.155, 2, "0.15"}, // its binary value is below the tie
		{2.5, 0, "2"},
		{3.5, 0, "4"},
		{0.5, 0, "0"},
		{-0.001, 2, "-0.00"},
		{math.Copysign(0, -1), 2, "-0.00"},
		{0, 4, "0.0000"},
		{math.NaN(), 2, "NaN"},
		{math.Inf(1), 2, "+Inf"},
		{math.Inf(-1), 6, "-Inf"},
		{1e300, 2, strconv.FormatFloat(1e300, 'f', 2, 64)}, // the fallback path
		{5e-324, 6, "0.000000"},                            // the smallest subnormal
		{1<<53 + 2, 0, "9007199254740994"},
		{float64(1<<53) + 1, 0, "9007199254740992"}, // 2^53+1 is not a float64; it rounds to 2^53
		{9.9999, 2, "10.00"},                        // the rounding carries into a new digit
		{0.99999, 4, "1.0000"},
		{-999.9996, 3, "-1000.000"},
		{12.3456789, 6, "12.345679"},
		{1234.5, 4, "1234.5000"},
	} {
		if got := string(AppendFixed(nil, c.v, c.prec)); got != c.want {
			t.Errorf("AppendFixed(%v, %d) = %q, want %q", c.v, c.prec, got, c.want)
		}
		checkFixed(t, c.v, c.prec)
	}
}

// TestAppendFixedBoundaries walks the shift and fallback boundaries:
// every exponent near 2^0, 2^-64 and 2^-128 scaled values, and every
// precision strconv and the integer path share.
func TestAppendFixedBoundaries(t *testing.T) {
	for exp := -140; exp <= 70; exp++ {
		for _, m := range []float64{1, 1.5, 1.25, 1.75, 1.9999999999999998, 1.0000000000000002} {
			for prec := 0; prec <= 20; prec++ {
				v := math.Ldexp(m, exp)
				checkFixed(t, v, prec)
				checkFixed(t, -v, prec)
			}
		}
	}
	for _, v := range []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 0.5, 0.05, 0.005, 1e-9, 5e-10, 1.5e-9, 1e19, 1.8446744073709552e19} {
		for prec := -1; prec <= 21; prec++ {
			checkFixed(t, v, prec)
		}
	}
}

func TestAppendFixedAllocatesNothing(t *testing.T) {
	dst := make([]byte, 0, 64)
	vals := []float64{0.125, -12.5, 1234.56789, 3.14159, 0}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			dst = AppendFixed(dst[:0], v, 2)
			dst = AppendFixed(dst[:0], v, 6)
		}
	}); n != 0 {
		t.Errorf("AppendFixed allocates %v objects per run into a buffer with room, want 0", n)
	}
}

// FuzzAppendFixed checks AppendFixed against strconv for any float64
// bit pattern and every precision from 0 to 9.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, 0.125, 0.375, 0.155, 2.5, -0.001, 1e300, 5e-324, 9.9999, 1 << 53} {
		f.Add(math.Float64bits(v), uint8(2))
	}
	f.Add(math.Float64bits(math.NaN()), uint8(0))
	f.Add(math.Float64bits(math.Inf(-1)), uint8(9))
	f.Fuzz(func(t *testing.T, b uint64, p uint8) {
		checkFixed(t, math.Float64frombits(b), int(p%10))
	})
}
