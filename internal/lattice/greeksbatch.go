package lattice

import (
	"fmt"

	"binopt/internal/option"
)

// PriceAndGreeksBatch prices every option in opts with full
// sensitivities and returns values and Greeks in the same order.
// workers limits the number of goroutines; workers <= 0 uses
// GOMAXPROCS.
//
// The whole pass runs on quad lanes, in three steps:
//
//  1. Expand: each position becomes GreeksLanes(1) lanes — its base
//     contract, σ±h and r±h, plus a T−2dt lane off CRR — and the lanes
//     of all positions pack back to back, so twelve CRR positions make
//     60 lanes, i.e. 15 full quad groups.
//  2. Sweep: the lanes run through the quad dispatcher PriceBatch uses.
//     Each sweep leaves levels 0–2 of every lane on its QuadPlan.
//  3. Form: delta, gamma and CRR theta come from the base lane's
//     retained levels, vega, rho and off-CRR theta from the bump lanes'
//     prices, through the same formGreeks as PriceAndGreeks.
//
// Results are bit-identical to calling PriceAndGreeks per option: every
// lane runs the scalar reference's exact operation sequence, and the
// quotients are the same expressions over the same values. The parity
// sweep in greeksbatch_test.go pins that.
//
// An invalid position fails before any sweep; a failing bump lane stops
// the dispatcher like any PriceBatch failure. Either error names the
// position and its contract, never a raw lane.
func (e *Engine) PriceAndGreeksBatch(opts []option.Option, workers int) ([]float64, []Greeks, error) {
	out, gs, _, err := e.priceAndGreeksBatch(opts, workers)
	return out, gs, err
}

// priceAndGreeksBatch additionally reports how many quad groups were
// priced, which the early-stop regression test pins.
func (e *Engine) priceAndGreeksBatch(opts []option.Option, workers int) ([]float64, []Greeks, int64, error) {
	out := make([]float64, len(opts))
	gs := make([]Greeks, len(opts))
	if len(opts) == 0 {
		return out, gs, 0, nil
	}
	if e.steps < 2 {
		return nil, nil, 0, fmt.Errorf("lattice: greeks need at least 2 steps, got %d", e.steps)
	}

	per := e.GreeksLanes(1)
	lps := make([]option.LatticeParams, len(opts))
	lanes := make([]option.Option, 0, per*len(opts))
	for i, o := range opts {
		lp, err := option.NewLatticeParams(o, e.steps, e.param)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("lattice: option %d (%v): %w", i, o, err)
		}
		lps[i] = lp
		lanes = e.appendBumps(append(lanes, o), o, lp)
	}

	levels := make([][retainedNodes]float64, len(lanes))
	priced, lane, err := e.dispatchQuads(lanes, workers, func(lo int, q *QuadPlan) {
		copy(levels[lo:lo+q.lanes], q.levels[:q.lanes])
	})
	if err != nil {
		i := lane / per
		return nil, nil, priced, fmt.Errorf("lattice: option %d (%v): %s lane: %w", i, opts[i], laneNames[lane%per], err)
	}

	var bumps [len(laneNames) - 1]float64
	for i, o := range opts {
		lv := levels[i*per : (i+1)*per]
		for j := range lv[1:] {
			bumps[j] = lv[j+1][0]
		}
		base := lv[0][:]
		out[i] = base[0]
		gs[i] = e.formGreeks(o, lps[i], base[0:1], base[1:3], base[3:6], bumps[:per-1])
	}
	return out, gs, priced, nil
}
