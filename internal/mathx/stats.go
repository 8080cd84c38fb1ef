package mathx

import (
	"fmt"
	"math"
)

// ErrorStats summarises the deviation of a vector of computed values from a
// reference vector. The paper reports a single RMSE per implementation;
// the extra fields support the accuracy-isolation experiment (E4).
type ErrorStats struct {
	N       int     // number of compared values
	RMSE    float64 // root mean square of absolute errors
	MaxAbs  float64 // worst absolute error
	MeanAbs float64 // mean absolute error
	MaxRel  float64 // worst relative error (reference != 0 entries only)
	Bias    float64 // signed mean error (computed - reference)
}

// CompareSeries computes error statistics of got against want. The slices
// must have equal, non-zero length.
func CompareSeries(got, want []float64) (ErrorStats, error) {
	if len(got) != len(want) {
		return ErrorStats{}, fmt.Errorf("mathx: series length mismatch: got %d, want %d", len(got), len(want))
	}
	if len(got) == 0 {
		return ErrorStats{}, fmt.Errorf("mathx: cannot compare empty series")
	}
	var sq, abs, bias KahanSum
	st := ErrorStats{N: len(got)}
	for i := range got {
		e := got[i] - want[i]
		ae := math.Abs(e)
		sq.Add(e * e)
		abs.Add(ae)
		bias.Add(e)
		if ae > st.MaxAbs {
			st.MaxAbs = ae
		}
		if want[i] != 0 {
			if rel := ae / math.Abs(want[i]); rel > st.MaxRel {
				st.MaxRel = rel
			}
		}
	}
	n := float64(st.N)
	st.RMSE = math.Sqrt(sq.Sum() / n)
	st.MeanAbs = abs.Sum() / n
	st.Bias = bias.Sum() / n
	return st, nil
}

// String renders the statistics in a compact single line.
func (s ErrorStats) String() string {
	return fmt.Sprintf("n=%d rmse=%.3e max=%.3e mean=%.3e maxrel=%.3e bias=%+.3e",
		s.N, s.RMSE, s.MaxAbs, s.MeanAbs, s.MaxRel, s.Bias)
}

// RMSE returns the root mean square error between got and want. It panics
// if the slices differ in length; use CompareSeries for checked comparison.
func RMSE(got, want []float64) float64 {
	st, err := CompareSeries(got, want)
	if err != nil {
		panic(err)
	}
	return st.RMSE
}
