package lattice

import (
	"fmt"
	"math"

	"binopt/internal/option"
)

// TrinomialEngine prices on the Boyle (1986) trinomial lattice: each
// step the asset moves up by exp(sigma*sqrt(2 dt)), down by its inverse,
// or stays. The extra middle branch roughly halves the depth needed for
// a given accuracy versus the binomial tree — one of the tree-family
// alternatives the solver survey ([12]) weighs against CRR, included
// here as a documented extension.
type TrinomialEngine struct {
	steps int
}

// NewTrinomialEngine returns a trinomial engine with the given depth.
func NewTrinomialEngine(steps int) (*TrinomialEngine, error) {
	if steps < 1 {
		return nil, fmt.Errorf("lattice: trinomial needs at least 1 step, got %d", steps)
	}
	return &TrinomialEngine{steps: steps}, nil
}

// Price values the option by trinomial backward induction.
func (e *TrinomialEngine) Price(o option.Option) (float64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	n := e.steps
	dt := o.T / float64(n)
	u := math.Exp(o.Sigma * math.Sqrt(2*dt))
	d := 1 / u

	eHalf := math.Exp((o.Rate - o.Div) * dt / 2)
	up := math.Exp(o.Sigma * math.Sqrt(dt/2))
	dn := 1 / up
	denom := up - dn
	pu := (eHalf - dn) / denom
	pu *= pu
	pd := (up - eHalf) / denom
	pd *= pd
	pm := 1 - pu - pd
	if pu <= 0 || pd <= 0 || pm <= 0 {
		return 0, fmt.Errorf("lattice: trinomial probabilities degenerate (pu=%v pm=%v pd=%v); increase steps", pu, pm, pd)
	}
	disc := math.Exp(-o.Rate * dt)

	// Leaves: 2n+1 nodes, price S0 * u^(j-n) for j in [0, 2n].
	width := 2*n + 1
	s := make([]float64, width)
	v := make([]float64, width)
	s[0] = o.Spot * math.Pow(d, float64(n))
	for j := 1; j < width; j++ {
		s[j] = s[j-1] * u
	}
	for j := 0; j < width; j++ {
		v[j] = o.Payoff(s[j])
	}

	american := o.Style == option.American
	for t := n - 1; t >= 0; t-- {
		levelWidth := 2*t + 1
		// At level t, node j (0..2t) has price S0*u^(j-t), which equals
		// the level-(t+1) node j+1's price: reuse s shifted by one.
		for j := 0; j < levelWidth; j++ {
			cont := disc * (pd*v[j] + pm*v[j+1] + pu*v[j+2])
			if american {
				if ex := o.Payoff(s[j+n-t]); ex > cont {
					cont = ex
				}
			}
			v[j] = cont
		}
	}
	return v[0], nil
}
