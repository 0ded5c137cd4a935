package jsonl

import (
	"math"
	"math/bits"
	"strconv"
)

// pow10 holds 10^0 through 10^19, every power of ten a uint64 holds.
var pow10 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// AppendFixed appends v with prec digits after the decimal point:
// exactly the bytes strconv.AppendFloat(dst, v, 'f', prec, 64) appends.
// strconv formats every 'f' with a precision through its multi-precision
// decimal; this path is integer-only. A finite v is exactly mant·2^e,
// so its printed digits are q = mant·10^prec·2^e rounded half to even,
// taken from a 128-bit product. The sign comes from the sign bit, so a
// negative value that rounds to zero prints "-0.00" as strconv does.
// NaN, ±Inf, a prec outside 0–19, and a value whose product or rounded
// quotient does not fit 64 bits go to strconv.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	if exp == 0x7ff || prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	e := exp - 1075 // |v| = mant·2^e
	hi, lo := bits.Mul64(mant, pow10[prec])

	// q is the product shifted right by -e; up says its remainder is
	// over half of 2^-e, or exactly half with q odd.
	var q uint64
	var up bool
	switch {
	case e >= 0:
		if hi != 0 || e >= 64 || lo>>(64-uint(e)) != 0 {
			return strconv.AppendFloat(dst, v, 'f', prec, 64)
		}
		q = lo << uint(e)
	case e > -64:
		s := uint(-e)
		if hi>>s != 0 {
			return strconv.AppendFloat(dst, v, 'f', prec, 64)
		}
		q = hi<<(64-s) | lo>>s
		rem, half := lo&(1<<s-1), uint64(1)<<(s-1)
		up = rem > half || rem == half && q&1 == 1
	case e > -128:
		// The remainder is hi's low s-64 bits above all of lo, and half
		// is 2^(s-1): lo's top bit when s is 64, else one bit of hi.
		s := uint(-e)
		q = hi >> (s - 64)
		if s == 64 {
			up = lo > 1<<63 || lo == 1<<63 && q&1 == 1
		} else {
			rem, half := hi&(1<<(s-64)-1), uint64(1)<<(s-65)
			up = rem > half || rem == half && (lo != 0 || q&1 == 1)
		}
	}
	// Below e = -127 the product, under 2^117, is less than half of
	// 2^-e, so q stays 0.
	if up {
		if q++; q == 0 {
			return strconv.AppendFloat(dst, v, 'f', prec, 64)
		}
	}

	var buf [32]byte
	i := len(buf)
	for range prec {
		i--
		buf[i] = byte('0' + q%10)
		q /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + q%10)
		if q /= 10; q == 0 {
			break
		}
	}
	if b>>63 != 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}
