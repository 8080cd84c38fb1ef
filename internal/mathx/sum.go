package mathx

import "math"

// KahanSum accumulates float64 values with Kahan–Neumaier compensation,
// bounding the rounding error independently of the number of terms. The
// zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }
