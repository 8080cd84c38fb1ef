package lattice

import (
	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// HostLeafPrices returns the leaf asset prices S(N,k) computed the way
// the paper's host code does for kernel IV.A: iterated multiplication
// from the bottom node, in double or single precision. Kernel drivers
// and the native engines share this helper so their numerics agree
// bit-for-bit.
func HostLeafPrices(spot float64, lp option.LatticeParams, param option.Parameterisation, single bool) []float64 {
	s := make([]float64, lp.Steps+1)
	hostLeafFill(s, 1, 0, spot, lp, param, single)
	return s
}

// hostLeafFill writes the host-computed leaves into dst at the given
// stride and offset: dst[off+k*stride] = S(N,k). The strided form is
// what lets the quad plan stream leaves straight into its interleaved
// stepsArray layout while running the exact multiplication chain of the
// scalar reference — one shared body, one shared rounding story.
//
//binopt:kernel host-side leaf initialisation (kernel IV.A's host stage)
func hostLeafFill(dst []float64, stride, off int, spot float64, lp option.LatticeParams, param option.Parameterisation, single bool) {
	rnd := rounder(single)
	n := lp.Steps
	u, d := rnd(lp.U), rnd(lp.D)
	x := rnd(spot)
	for i := 0; i < n; i++ {
		x = rnd(x * d)
	}
	dst[off] = x
	ud := rnd(u * u) // CRR: u/d = u*u since d = 1/u
	if param != option.CRR {
		ud = rnd(u / d)
	}
	for k := 1; k <= n; k++ {
		x = rnd(x * ud)
		dst[off+k*stride] = x
	}
}

// deviceLeafFill writes the leaf asset prices the way kernel IV.B
// initialises them on the device, into dst at the given stride and
// offset for the quad plan's interleaved buffers: one Power-operator
// evaluation per leaf, S(N,k) = S0 * u^(2k-N) (the CRR telescoped form;
// d = 1/u). The pow core carries the accuracy of the emulated hardware
// operator.
//
//binopt:kernel device-side leaf initialisation (kernel IV.B's per-work-item stage)
func deviceLeafFill(dst []float64, stride, off int, spot float64, lp option.LatticeParams, pow hwmath.PowCore, single bool) {
	rnd := rounder(single)
	n := lp.Steps
	u := rnd(lp.U) // the device reads u from the params buffer in its precision
	for k := 0; k <= n; k++ {
		dst[off+k*stride] = rnd(rnd(spot) * rnd(pow.Pow(u, float64(2*k-n))))
	}
}

// rounder returns the per-operation rounding of the chosen precision.
func rounder(single bool) func(float64) float64 {
	if single {
		return func(x float64) float64 { return float64(float32(x)) }
	}
	return func(x float64) float64 { return x }
}
