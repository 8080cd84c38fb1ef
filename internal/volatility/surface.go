package volatility

import (
	"fmt"
	"math"
	"sort"

	"binopt/internal/option"
	"binopt/internal/workload"
)

// Surface is an implied-volatility surface: one recovered curve per
// maturity, queryable at any (strike, expiry) by interpolation. It is
// the multi-maturity extension of the paper's per-curve use case — the
// natural next artefact once the accelerator prices one curve per second.
type Surface struct {
	maturities []float64
	curves     [][]CurvePoint
}

// BuildSurface groups the quotes by expiry, inverts each group into a
// curve through priceBatch (see Curve), and assembles the surface. It
// returns the surface and the total number of skipped
// (no-vol-information) quotes.
func BuildSurface(quotes []workload.Quote, priceBatch func([]option.Option) ([]float64, error)) (*Surface, int, error) {
	if len(quotes) == 0 {
		return nil, 0, fmt.Errorf("volatility: no quotes for surface")
	}
	groups := make(map[float64][]workload.Quote)
	for _, q := range quotes {
		groups[q.Option.T] = append(groups[q.Option.T], q)
	}
	maturities := make([]float64, 0, len(groups))
	for t := range groups {
		maturities = append(maturities, t)
	}
	sort.Float64s(maturities)

	s := &Surface{maturities: maturities}
	skipped := 0
	for _, t := range maturities {
		pts, sk, err := Curve(groups[t], priceBatch)
		skipped += sk
		if err != nil {
			return nil, skipped, fmt.Errorf("volatility: maturity %v: %w", t, err)
		}
		if len(pts) == 0 {
			return nil, skipped, fmt.Errorf("volatility: maturity %v has no informative quotes", t)
		}
		s.curves = append(s.curves, pts)
	}
	return s, skipped, nil
}

// Maturities returns the surface's expiry grid.
func (s *Surface) Maturities() []float64 {
	out := make([]float64, len(s.maturities))
	copy(out, s.maturities)
	return out
}

// Vol returns the implied volatility at (strike, t). Strikes interpolate
// linearly within each curve (clamped at the ends); maturities
// interpolate linearly in total variance sigma^2*t, the arbitrage-aware
// convention, clamped outside the quoted range.
func (s *Surface) Vol(strike, t float64) (float64, error) {
	if strike <= 0 || t <= 0 || math.IsNaN(strike) || math.IsNaN(t) {
		return 0, fmt.Errorf("volatility: query (K=%v, T=%v) invalid", strike, t)
	}
	// Locate bracketing maturities.
	n := len(s.maturities)
	j := sort.SearchFloat64s(s.maturities, t)
	switch {
	case j == 0:
		return curveVol(s.curves[0], strike), nil
	case j >= n:
		return curveVol(s.curves[n-1], strike), nil
	}
	t0, t1 := s.maturities[j-1], s.maturities[j]
	v0 := curveVol(s.curves[j-1], strike)
	v1 := curveVol(s.curves[j], strike)
	// Total-variance interpolation: w(t) linear between w0 and w1.
	w0 := v0 * v0 * t0
	w1 := v1 * v1 * t1
	w := w0 + (w1-w0)*(t-t0)/(t1-t0)
	if w < 0 {
		w = 0
	}
	return math.Sqrt(w / t), nil
}

// curveVol interpolates one curve linearly in strike with clamped
// extrapolation.
func curveVol(pts []CurvePoint, strike float64) float64 {
	n := len(pts)
	if strike <= pts[0].Strike {
		return pts[0].Implied
	}
	if strike >= pts[n-1].Strike {
		return pts[n-1].Implied
	}
	j := sort.Search(n, func(i int) bool { return pts[i].Strike >= strike })
	a, b := pts[j-1], pts[j]
	w := (strike - a.Strike) / (b.Strike - a.Strike)
	return a.Implied*(1-w) + b.Implied*w
}
