// Package scenario is the market-risk revaluation engine: it expands a
// portfolio under a set of shocked market states, drives the resulting
// contract batches through the quad-interleaved pricing path, and
// aggregates per-scenario P&L, net Greeks and VaR/ES quantiles. This is
// the workload the data-centre-FPGA economics are built on — one
// request fanning out to 10⁴–10⁶ lattice evaluations at production
// batch sizes — and every shocked price is bit-identical to pricing the
// shocked contract alone through the scalar reference, so a scenario
// run solo, sharded across a fleet, or recomputed serially always
// agrees to the last bit.
package scenario

import (
	"fmt"
	"math"

	"binopt/internal/option"
)

// Shock is one scenario's perturbation of the market state: a
// multiplicative bump to every position's spot and volatility and a
// parallel additive shift of the risk-free rate — the three axes
// desk-side stress grids are built from. The identity shock is
// {SpotMul: 1, VolMul: 1, RateAdd: 0}.
type Shock struct {
	Label   string  `json:"label,omitempty"`
	SpotMul float64 `json:"spot_mul"`
	VolMul  float64 `json:"vol_mul"`
	RateAdd float64 `json:"rate_add"`
}

// Identity is the unshocked market state.
func Identity() Shock { return Shock{Label: "base", SpotMul: 1, VolMul: 1} }

// Apply returns the contract revalued under this shock. The three
// float64 operations are fixed (multiply, multiply, add), so a shocked
// contract — and therefore its lattice price — is a deterministic
// function of (contract, shock) alone.
func (s Shock) Apply(o option.Option) option.Option {
	o.Spot *= s.SpotMul
	o.Sigma *= s.VolMul
	o.Rate += s.RateAdd
	return o
}

// Validate rejects shocks that cannot produce a priceable contract.
func (s Shock) Validate() error {
	switch {
	case !(s.SpotMul > 0) || math.IsInf(s.SpotMul, 0):
		return fmt.Errorf("scenario: spot multiplier must be positive and finite, got %v", s.SpotMul)
	case !(s.VolMul > 0) || math.IsInf(s.VolMul, 0):
		return fmt.Errorf("scenario: vol multiplier must be positive and finite, got %v", s.VolMul)
	case math.IsNaN(s.RateAdd) || math.IsInf(s.RateAdd, 0):
		return fmt.Errorf("scenario: rate shift must be finite, got %v", s.RateAdd)
	}
	return nil
}

// Key is the shock's canonical identity: the exact bit patterns of its
// three perturbations. The serving tier builds cache keys from it and
// the fleet router hashes it onto the ring, so two shocks that round to
// the same bits are the same scenario everywhere.
func (s Shock) Key() string {
	return fmt.Sprintf("%016x.%016x.%016x",
		math.Float64bits(s.SpotMul), math.Float64bits(s.VolMul), math.Float64bits(s.RateAdd))
}

// defaultLabel names a generated shock for reports.
func (s Shock) defaultLabel() string {
	return fmt.Sprintf("spot*%g|vol*%g|rate%+g", s.SpotMul, s.VolMul, s.RateAdd)
}

// Axis is one dimension of a scenario grid: N values evenly spaced over
// [From, To]. The zero Axis contributes the dimension's identity (a
// single unshocked point). How the values perturb the market is fixed
// per dimension by GridSpec: spot and vol multiplicatively, rate as a
// parallel additive shift.
type Axis struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	N    int     `json:"n"`
}

// values expands the axis; identity is the value of an unused axis.
func (a Axis) values(identity float64) []float64 {
	if a.N <= 0 {
		return []float64{identity}
	}
	if a.N == 1 {
		return []float64{a.From}
	}
	vs := make([]float64, a.N)
	step := (a.To - a.From) / float64(a.N-1)
	for i := range vs {
		vs[i] = a.From + step*float64(i)
	}
	return vs
}

func (a Axis) validate(name string, mustBePositive bool) error {
	if a.N < 0 {
		return fmt.Errorf("scenario: %s axis count must be >= 0, got %d", name, a.N)
	}
	if a.N == 0 {
		return nil
	}
	for _, v := range []float64{a.From, a.To} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: %s axis bounds must be finite", name)
		}
		if mustBePositive && v <= 0 {
			return fmt.Errorf("scenario: %s axis values must be positive, got %v", name, v)
		}
	}
	return nil
}

// MaxGridScenarios caps a grid expansion; beyond it the request is a
// client error, not a server commitment.
const MaxGridScenarios = 1 << 20

// GridSpec is the small grid mode: the cross product of a
// multiplicative spot axis, a multiplicative vol axis and an additive
// rate axis. Unused axes contribute their identity, so a pure parallel
// rate-shift ladder is a grid with only the rate axis set, and a spot
// bump ladder only the spot axis.
type GridSpec struct {
	Spot Axis `json:"spot"`
	Vol  Axis `json:"vol"`
	Rate Axis `json:"rate"`
}

// Shocks expands the grid in deterministic order — rate fastest, then
// vol, then spot — with generated labels.
func (g GridSpec) Shocks() ([]Shock, error) {
	if err := g.Spot.validate("spot", true); err != nil {
		return nil, err
	}
	if err := g.Vol.validate("vol", true); err != nil {
		return nil, err
	}
	if err := g.Rate.validate("rate", false); err != nil {
		return nil, err
	}
	// Bound the expansion before allocating anything: one axis count
	// alone can ask for more memory than the host has, and the product
	// of three can overflow.
	total := 1
	for _, a := range []Axis{g.Spot, g.Vol, g.Rate} {
		n := max(a.N, 1)
		if n > MaxGridScenarios/total {
			return nil, fmt.Errorf("scenario: grid expands past the %d-scenario cap", MaxGridScenarios)
		}
		total *= n
	}
	spots := g.Spot.values(1)
	vols := g.Vol.values(1)
	rates := g.Rate.values(0)
	shocks := make([]Shock, 0, total)
	for _, sm := range spots {
		for _, vm := range vols {
			for _, ra := range rates {
				s := Shock{SpotMul: sm, VolMul: vm, RateAdd: ra}
				if err := s.Validate(); err != nil {
					return nil, err
				}
				s.Label = s.defaultLabel()
				shocks = append(shocks, s)
			}
		}
	}
	return shocks, nil
}
