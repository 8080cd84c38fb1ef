package mathx

import "math"

// ULP64 returns the distance in units-in-the-last-place between two
// float64 values, saturating at math.MaxInt64. It treats values of
// opposite sign as separated by their combined distance from zero, which
// is the conventional monotone ULP metric.
func ULP64(a, b float64) int64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxInt64
	}
	ia := orderedBits64(a)
	ib := orderedBits64(b)
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return d
}

// orderedBits64 maps a float64 onto a monotone int64 scale so that ULP
// distance is a plain subtraction.
func orderedBits64(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// Clamp returns x limited to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// Coefficients of Acklam's rational approximation to the inverse normal
// CDF, accurate to about 1.15e-9 before refinement.
var (
	acklamA = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	acklamB = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	acklamC = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	acklamD = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
)

// NormInvCDF returns the inverse of the standard normal CDF (the quantile
// function). It uses Acklam's rational approximation followed by a single
// Halley refinement step, giving accuracy near machine precision over
// (0, 1). It returns ±Inf at the endpoints and NaN outside [0, 1].
func NormInvCDF(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	//binopt:ignore floateq p == 1 is an exact domain endpoint (1.0 is representable), not a computed value
	case p == 1:
		return math.Inf(1)
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((acklamA[0]*r+acklamA[1])*r+acklamA[2])*r+acklamA[3])*r+acklamA[4])*r + acklamA[5]) * q /
			(((((acklamB[0]*r+acklamB[1])*r+acklamB[2])*r+acklamB[3])*r+acklamB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	}

	// One Halley refinement step against the accurate CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(0.5*x*x)
	x -= u / (1 + 0.5*x*u)
	return x
}

// OrderOfMagnitude returns the decimal exponent of |x| (e.g. -3 for
// 2.4e-3), or math.MinInt for x == 0. The paper quotes RMSE figures as
// orders of magnitude ("~10^-3"); this makes those comparisons explicit.
func OrderOfMagnitude(x float64) int {
	if x == 0 {
		return math.MinInt
	}
	return int(math.Floor(math.Log10(math.Abs(x))))
}

// Reset clears the accumulator to zero.
func (k *KahanSum) Reset() { k.sum, k.c = 0, 0 }

// Mean returns the compensated arithmetic mean of xs, or 0 for an empty
// slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return SumSlice(xs) / float64(len(xs))
}

// RoundTo32 rounds a float64 to the nearest float32 and widens it back.
func RoundTo32(x float64) float64 {
	return float64(float32(x))
}

// SumSlice returns the compensated sum of xs.
func SumSlice(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}
