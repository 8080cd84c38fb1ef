package mathx

import "math"

// TruncateMantissa rounds x to a float64 with only `bits` explicit
// mantissa bits (1 <= bits <= 52), emulating a reduced-precision hardware
// datapath. The rounding is round-to-nearest-even on the retained bits.
// Subnormal inputs are returned unchanged (they have no implicit leading
// one, so per-bit truncation is ill-defined; hardware cores treat them
// out of band anyway).
func TruncateMantissa(x float64, bits uint) float64 {
	if bits >= 52 {
		return x
	}
	if bits < 1 {
		bits = 1
	}
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) < 0x1p-1022 {
		return x
	}
	drop := 52 - bits
	u := math.Float64bits(x)
	mask := uint64(1)<<drop - 1
	frac := u & mask
	u &^= mask
	half := uint64(1) << (drop - 1)
	if frac > half || (frac == half && u&(1<<drop) != 0) {
		u += 1 << drop // may carry into the exponent, which is correct rounding
	}
	return math.Float64frombits(u)
}

// AlmostEqual reports whether a and b agree to within absolute tolerance
// absTol or relative tolerance relTol, whichever is looser.
func AlmostEqual(a, b, absTol, relTol float64) bool {
	d := math.Abs(a - b)
	if d <= absTol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= relTol*m
}
