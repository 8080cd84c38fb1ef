package volatility

import (
	"errors"
	"fmt"
	"sort"

	"binopt/internal/option"
	"binopt/internal/workload"
)

// CurvePoint is one recovered point of the implied-volatility curve.
type CurvePoint struct {
	Strike  float64
	Mny     float64 // strike / spot
	Implied float64
}

// Curve inverts every quote and returns the volatility curve sorted by
// strike — the artefact the trader reads off the accelerator — plus the
// number of quotes skipped because they carry no volatility information
// (deep in-the-money American options pinned at intrinsic). Each quote
// costs the solver a dozen or more full tree pricings, which is
// precisely why the paper needs 2000+ options/s.
//
// Every quote runs its own Brent inversion in lock step: each round
// gathers the trial sigma of every quote still solving and prices them
// all in one priceBatch call, so the batch pricer sees the whole chain
// at once; priceBatch returns one price per option, in order. The
// points, skipped count and pricings are those of Brent quote by quote.
// A priceBatch error fails the curve, and so does any quote Brent fails
// on other than with ErrNoVolInfo: the error names the lowest-index one.
func Curve(quotes []workload.Quote, priceBatch func([]option.Option) ([]float64, error)) ([]CurvePoint, int, error) {
	if len(quotes) == 0 {
		return nil, 0, fmt.Errorf("volatility: no quotes")
	}
	var (
		states  = make([]brent, len(quotes))
		pts     = make([]CurvePoint, len(quotes))
		keep    = make([]bool, len(quotes))
		live    = make([]int, 0, len(quotes)) // quotes still solving, in index order
		trial   = make([]option.Option, 0, len(quotes))
		skipped int
		failed  = len(quotes) // lowest failing quote so far
	)
	settle := func(i int, iv float64) {
		switch err := states[i].err; {
		case errors.Is(err, ErrNoVolInfo):
			skipped++
		case err != nil:
			failed = min(failed, i)
		default:
			o := quotes[i].Option
			pts[i] = CurvePoint{Strike: o.Strike, Mny: o.Strike / o.Spot, Implied: iv}
			keep[i] = true
		}
	}
	for i, q := range quotes {
		sigma, done := states[i].start(q.Price, q.Option)
		if done {
			settle(i, sigma)
			continue
		}
		o := q.Option
		o.Sigma = sigma
		live = append(live, i)
		trial = append(trial, o)
	}
	for len(live) > 0 {
		prices, err := priceBatch(trial)
		if err != nil {
			return nil, skipped, fmt.Errorf("volatility: pricing %d trial sigmas: %w", len(trial), err)
		}
		n := 0
		for k, i := range live {
			if i > failed {
				break // a lower quote already failed: these cannot be reported
			}
			sigma, done := states[i].next(prices[k])
			if done {
				settle(i, sigma)
				continue
			}
			live[n], trial[n] = i, trial[k]
			trial[n].Sigma = sigma
			n++
		}
		live, trial = live[:n], trial[:n]
	}
	if failed < len(quotes) {
		q := quotes[failed]
		return nil, skipped, fmt.Errorf("volatility: quote %d (K=%v): %w", failed, q.Option.Strike, states[failed].err)
	}
	out := pts[:0]
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Strike < out[j].Strike })
	return out, skipped, nil
}
