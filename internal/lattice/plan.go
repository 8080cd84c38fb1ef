package lattice

import (
	"math"

	"binopt/internal/option"
)

// Plan is the reusable per-contract half of the plan/execute split: the
// derived lattice coefficients in working precision, the leaf asset-price
// ladder, the leaf payoff table, and the working buffers the backward
// sweep consumes. Planning (coefficient derivation, leaf initialisation)
// happens once; execution can then run — and, via Reset, re-run for a
// bumped contract — without re-allocating anything. The Greeks bumps and
// the batch pricer's per-worker scratch both lean on that reuse.
//
// A Plan belongs to the Engine that built it and is not safe for
// concurrent use.
type Plan struct {
	eng *Engine
	opt option.Option
	lp  option.LatticeParams

	// Coefficients pre-rounded to the engine's working precision, the
	// "option-dependent data" buffer of the paper's kernels.
	pu, pd, invD, strike float64
	american             bool

	// leaves holds the leaf asset prices S(N,k); payoffs the leaf option
	// values. Exec copies them into the working buffers s and v, so a
	// plan can execute any number of times.
	leaves, payoffs []float64
	s, v            []float64
}

// NewPlan derives a pricing plan for the contract at the engine's depth,
// precision and leaf-initialisation mode.
func (e *Engine) NewPlan(o option.Option) (*Plan, error) {
	n := e.steps
	p := &Plan{
		eng:     e,
		leaves:  make([]float64, n+1),
		payoffs: make([]float64, n+1),
		s:       make([]float64, n+1),
		v:       make([]float64, n+1),
	}
	if err := p.Reset(o); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset re-plans for a new contract, reusing every buffer. When only the
// rates moved under the CRR parameterisation — the rho bump — the leaf
// ladder and payoff table are provably unchanged (CRR's u and d depend
// on sigma and dt alone, and the payoff on leaves and strike alone), so
// Reset skips re-deriving them and refreshes just the discounted
// probabilities.
func (p *Plan) Reset(o option.Option) error {
	e := p.eng
	lp, err := option.NewLatticeParams(o, e.steps, e.param)
	if err != nil {
		return err
	}
	ratesOnly := e.param == option.CRR && sameLeafInputs(p.opt, o) &&
		math.Float64bits(p.lp.U) == math.Float64bits(lp.U) &&
		math.Float64bits(p.lp.D) == math.Float64bits(lp.D)

	rnd := rounder(e.single)
	d := rnd(lp.D)
	p.opt = o
	p.lp = lp
	p.pu, p.pd = rnd(lp.Pu), rnd(lp.Pd)
	p.invD = rnd(1 / d)
	p.strike = rnd(o.Strike)
	p.american = o.Style == option.American
	if ratesOnly {
		return nil
	}

	switch e.leaf {
	case LeafDevicePow:
		deviceLeafFill(p.leaves, 1, 0, o.Spot, lp, e.pow, e.single)
	default:
		hostLeafFill(p.leaves, 1, 0, o.Spot, lp, e.param, e.single)
	}
	for k := 0; k <= lp.Steps; k++ {
		p.payoffs[k] = rnd(payoff(o.Right, p.leaves[k], p.strike))
	}
	return nil
}

// sameLeafInputs reports whether two contracts share every field the
// leaf ladder and payoff table depend on — everything except the rates.
// Floats compare by bits: a bump is a bump even when it rounds back.
func sameLeafInputs(a, b option.Option) bool {
	return a.Right == b.Right && a.Style == b.Style &&
		math.Float64bits(a.Spot) == math.Float64bits(b.Spot) &&
		math.Float64bits(a.Strike) == math.Float64bits(b.Strike) &&
		math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma) &&
		math.Float64bits(a.T) == math.Float64bits(b.T)
}

// Params exposes the plan's derived lattice coefficients.
func (p *Plan) Params() option.LatticeParams { return p.lp }

// Exec runs the backward sweep and returns the option value. The scalar
// sweep is the repository's bit-parity reference: every fast path (the
// quad kernel, the platform engines) is asserted bit-identical to it.
func (p *Plan) Exec() float64 {
	v, _ := p.ExecRetain(0)
	return v
}

// ExecRetain is Exec plus the node values of the first `retain` time
// levels (levels 0..retain-1, each level t holding t+1 values). The
// Greeks computation needs levels 0..2.
//
//binopt:kernel scalar backward-induction sweep, the bit-parity reference
func (p *Plan) ExecRetain(retain int) (float64, [][]float64) {
	rnd := rounder(p.eng.single)
	n := p.lp.Steps
	s, v := p.s, p.v
	copy(s, p.leaves)
	copy(v, p.payoffs)

	var kept [][]float64
	if retain > 0 {
		kept = make([][]float64, retain)
	}
	if n < retain {
		// The leaf level is itself one of the retained ones.
		kept[n] = append([]float64(nil), v[:n+1]...)
	}

	right := p.opt.Right
	pu, pd, invD, strike := p.pu, p.pd, p.invD, p.strike
	american := p.american
	for t := n - 1; t >= 0; t-- {
		// Asset prices at level t from level t+1: S(t,k) = S(t+1,k)/d.
		// Continuation and early exercise per node.
		for k := 0; k <= t; k++ {
			s[k] = rnd(s[k] * invD)
			cont := rnd(rnd(pu*v[k+1]) + rnd(pd*v[k]))
			if american {
				if ex := rnd(payoff(right, s[k], strike)); ex > cont {
					cont = ex
				}
			}
			v[k] = cont
		}
		if t < retain {
			level := make([]float64, t+1)
			copy(level, v[:t+1])
			kept[t] = level
		}
	}
	return v[0], kept
}
