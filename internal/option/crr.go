package option

import (
	"errors"
	"fmt"
	"math"
)

// ErrProbabilityRange reports a contract with no valid lattice at the
// requested depth: its risk-neutral probability falls outside (0, 1).
// The contract itself is at fault, so every engine fails it the same
// way; callers test for it with errors.Is.
var ErrProbabilityRange = errors.New("option: risk-neutral probability outside (0,1)")

// Parameterisation selects how the up/down factors and risk-neutral
// probability of the binomial lattice are derived from the contract. The
// paper uses the classic Cox–Ross–Rubinstein tree [3]; the alternatives
// are provided as documented extensions and ablation points.
type Parameterisation int

const (
	// CRR is the Cox–Ross–Rubinstein parameterisation: u = exp(sigma*sqrt(dt)),
	// d = 1/u. The tree recombines around the spot.
	CRR Parameterisation = iota
	// JarrowRudd sets p = 1/2 and folds the drift into the factors.
	JarrowRudd
	// Tian matches the first three moments of the lognormal increment.
	Tian
	// LeisenReimer centres the tree on the strike via the Peizer–Pratt
	// inversion, achieving O(1/N^2) convergence without the payoff-kink
	// oscillation. Requires an odd number of steps.
	LeisenReimer
)

// String names the parameterisation.
func (p Parameterisation) String() string {
	switch p {
	case CRR:
		return "crr"
	case JarrowRudd:
		return "jarrow-rudd"
	case Tian:
		return "tian"
	case LeisenReimer:
		return "leisen-reimer"
	default:
		return fmt.Sprintf("Parameterisation(%d)", int(p))
	}
}

// LatticeParams holds everything a binomial kernel needs per option: the
// per-step factors, the discounted risk-neutral probabilities rp and rq of
// the paper's recurrence (Equation 1), and the step count. Precomputing
// these on the host mirrors the paper's "option-dependent data ... stored
// in another global buffer".
type LatticeParams struct {
	Steps int     // N, number of time discretisation steps
	Dt    float64 // time step T/N
	U     float64 // up factor
	D     float64 // down factor
	P     float64 // risk-neutral up probability
	Disc  float64 // one-step discount factor exp(-r*dt)
	Pu    float64 // Disc * P       (the paper's rp)
	Pd    float64 // Disc * (1-P)   (the paper's rq)
}

// NewLatticeParams derives the lattice coefficients for the option with N
// steps under the given parameterisation. It returns an error when the
// discretisation is unusable (N < 1) or the resulting risk-neutral
// probability falls outside (0, 1), which happens when the drift per step
// exceeds the volatility per step (dt too large for CRR).
func NewLatticeParams(o Option, n int, param Parameterisation) (LatticeParams, error) {
	if err := o.Validate(); err != nil {
		return LatticeParams{}, err
	}
	if n < 1 {
		return LatticeParams{}, fmt.Errorf("option: lattice needs at least 1 step, got %d", n)
	}
	dt := o.T / float64(n)
	growth := math.Exp((o.Rate - o.Div) * dt)

	var u, d, p float64
	switch param {
	case CRR:
		u = math.Exp(o.Sigma * math.Sqrt(dt))
		d = 1 / u
		p = (growth - d) / (u - d)
	case JarrowRudd:
		nu := o.Rate - o.Div - 0.5*o.Sigma*o.Sigma
		u = math.Exp(nu*dt + o.Sigma*math.Sqrt(dt))
		d = math.Exp(nu*dt - o.Sigma*math.Sqrt(dt))
		p = 0.5
	case Tian:
		v := math.Exp(o.Sigma * o.Sigma * dt)
		u = 0.5 * growth * v * (v + 1 + math.Sqrt(v*v+2*v-3))
		d = 0.5 * growth * v * (v + 1 - math.Sqrt(v*v+2*v-3))
		p = (growth - d) / (u - d)
	case LeisenReimer:
		if n%2 == 0 {
			return LatticeParams{}, fmt.Errorf("option: Leisen-Reimer requires an odd step count, got %d", n)
		}
		volSqrtT := o.Sigma * math.Sqrt(o.T)
		d1 := (math.Log(o.Spot/o.Strike) + (o.Rate-o.Div+0.5*o.Sigma*o.Sigma)*o.T) / volSqrtT
		d2 := d1 - volSqrtT
		p = peizerPratt(d2, n)
		pPrime := peizerPratt(d1, n)
		u = growth * pPrime / p
		d = (growth - p*u) / (1 - p)
	default:
		return LatticeParams{}, fmt.Errorf("option: unknown parameterisation %d", int(param))
	}

	if !(p > 0 && p < 1) {
		return LatticeParams{}, fmt.Errorf("%w: p = %v; increase steps (N=%d, dt=%v)", ErrProbabilityRange, p, n, dt)
	}
	disc := math.Exp(-o.Rate * dt)
	return LatticeParams{
		Steps: n,
		Dt:    dt,
		U:     u,
		D:     d,
		P:     p,
		Disc:  disc,
		Pu:    disc * p,
		Pd:    disc * (1 - p),
	}, nil
}

// peizerPratt is the Peizer–Pratt method-2 inversion used by the
// Leisen–Reimer tree: it maps a normal quantile z onto a binomial
// probability so that the n-step binomial CDF matches the normal CDF at
// z.
func peizerPratt(z float64, n int) float64 {
	nf := float64(n)
	denom := nf + 1.0/3.0 + 0.1/(nf+1)
	arg := -(z / denom) * (z / denom) * (nf + 1.0/6.0)
	s := 0.25 - 0.25*math.Exp(arg)
	if s < 0 {
		s = 0
	}
	h := 0.5 + math.Copysign(math.Sqrt(s), z)
	return h
}
