// Package mathx provides the numerical utilities shared by the pricing
// engines: normal-distribution functions, compensated summation, and error
// statistics used to report RMSE figures the way the paper does.
package mathx

import "math"

// invSqrt2Pi is 1/sqrt(2*pi), the normalisation constant of the standard
// normal density.
const invSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346

// NormPDF returns the standard normal probability density at x.
func NormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// NormCDF returns the standard normal cumulative distribution at x,
// computed from the complementary error function for full double accuracy
// in both tails.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormCDFComplement returns 1 - NormCDF(x) without cancellation in the
// upper tail.
func NormCDFComplement(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}
