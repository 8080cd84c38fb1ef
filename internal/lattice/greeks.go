package lattice

import (
	"fmt"

	"binopt/internal/option"
)

// Greeks are the sensitivities extracted from a single lattice run plus
// two bump-and-reprice evaluations (vega, rho). Delta, gamma and theta
// come directly from the first tree levels, the standard technique for
// lattice pricers.
type Greeks struct {
	Delta float64
	Gamma float64
	Theta float64
	Vega  float64
	Rho   float64
}

// The central-difference steps of the vega and rho bumps.
const hSigma, hRate = 1e-3, 1e-4

// laneNames label a position's Greeks lanes in lane order — the base
// contract, then the bumps appendBumps adds — for error messages.
var laneNames = [...]string{"base", "vega-up bump", "vega-down bump", "rho-up bump", "rho-down bump", "theta re-sweep"}

// GreeksLanes reports how many contract evaluations the Greeks of
// `positions` contracts cost on this engine: per position the base
// sweep and the four vega/rho bumps, plus — off CRR, where theta cannot
// be read from the tree — a re-sweep at T−2dt.
func (e *Engine) GreeksLanes(positions int) int {
	if e.param == option.CRR {
		return 5 * positions
	}
	return 6 * positions
}

// PriceAndGreeks returns the option value and its sensitivities. Theta
// from the tree requires the CRR parameterisation (it relies on the level-2
// middle node recombining to the spot); other parameterisations get theta
// via repricing.
//
// All bump evaluations share one Plan: the base contract is planned
// once, and each bump re-derives only what its perturbation touches into
// the same buffers (a rho bump under CRR keeps the leaf ladder and
// payoff table — see Plan.Reset). No lattice buffer is allocated per
// bump.
func (e *Engine) PriceAndGreeks(o option.Option) (float64, Greeks, error) {
	if e.steps < 2 {
		return 0, Greeks{}, fmt.Errorf("lattice: greeks need at least 2 steps, got %d", e.steps)
	}
	p, err := e.NewPlan(o)
	if err != nil {
		return 0, Greeks{}, err
	}
	lp := p.Params()
	price, kept := p.ExecRetain(retainedLevels)
	var buf [len(laneNames) - 1]option.Option
	var bumps [len(laneNames) - 1]float64
	for i, b := range e.appendBumps(buf[:0], o, lp) {
		if err := p.Reset(b); err != nil {
			return 0, Greeks{}, fmt.Errorf("%s: %w", laneNames[i+1], err)
		}
		bumps[i] = p.Exec()
	}
	return price, e.formGreeks(o, lp, kept[0], kept[1], kept[2], bumps[:]), nil
}

// appendBumps appends o's bump contracts to dst in lane order: σ+h,
// σ−h, r+h, r−h and, off CRR, the theta contract at T−2dt.
func (e *Engine) appendBumps(dst []option.Option, o option.Option, lp option.LatticeParams) []option.Option {
	vu, vd, ru, rd := o, o, o, o
	vu.Sigma += hSigma
	vd.Sigma -= hSigma
	ru.Rate += hRate
	rd.Rate -= hRate
	dst = append(dst, vu, vd, ru, rd)
	if e.param != option.CRR {
		th := o
		th.T -= 2 * lp.Dt
		dst = append(dst, th)
	}
	return dst
}

// formGreeks forms the sensitivities from a contract's first three tree
// levels (v0, v1, v2) and its bump prices in appendBumps order. The
// scalar reference and the batch path both call it, so their quotients
// agree expression for expression.
func (e *Engine) formGreeks(o option.Option, lp option.LatticeParams, v0, v1, v2, bumps []float64) Greeks {
	s10 := o.Spot * lp.D
	s11 := o.Spot * lp.U
	s20 := o.Spot * lp.D * lp.D
	s21 := o.Spot * lp.U * lp.D
	s22 := o.Spot * lp.U * lp.U

	var g Greeks
	g.Delta = (v1[1] - v1[0]) / (s11 - s10)
	dUp := (v2[2] - v2[1]) / (s22 - s21)
	dDn := (v2[1] - v2[0]) / (s21 - s20)
	g.Gamma = (dUp - dDn) / (0.5 * (s22 - s20))

	if e.param == option.CRR {
		// S(2,1) == S0 exactly under CRR, so V(2,1) is the option value
		// two steps later at the same spot.
		g.Theta = (v2[1] - v0[0]) / (2 * lp.Dt)
	} else {
		g.Theta = (bumps[4] - v0[0]) / (2 * lp.Dt)
	}
	g.Vega = (bumps[0] - bumps[1]) / (2 * hSigma)
	g.Rho = (bumps[2] - bumps[3]) / (2 * hRate)
	return g
}
