// Package binopt reproduces "Energy-Efficient FPGA Implementation for
// Binomial Option Pricing Using OpenCL" (Mena Morales et al., DATE 2014)
// as a self-contained Go library: a binomial (CRR) pricer for American and
// European options, the paper's two OpenCL kernel architectures running on
// a functional OpenCL-model runtime, an HLS compiler/fitter/power model of
// the Stratix IV target, performance and energy models for the three
// evaluation platforms, and the implied-volatility use case that motivates
// the 2000-options-per-second design target.
//
// The top-level API covers everyday pricing; the experiment entry points
// (Table1, Table2, Saturation, VolCurve, KnobSweep, PowAccuracy) regenerate
// the paper's tables, figures and discussion points. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured results.
package binopt

import (
	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/volatility"
)

// Contract and engine types, aliased from the internal packages so the
// public surface is one import.
type (
	// Option is a vanilla option contract plus market state.
	Option = option.Option
	// Right is Call or Put.
	Right = option.Right
	// Style is European or American exercise.
	Style = option.Style
	// Parameterisation selects the lattice construction (CRR default).
	Parameterisation = option.Parameterisation
	// Engine is a binomial pricing engine.
	Engine = lattice.Engine
	// Greeks are lattice sensitivities.
	Greeks = lattice.Greeks
)

// Contract enumerations.
const (
	// Call is the right to buy.
	Call = option.Call
	// Put is the right to sell.
	Put = option.Put
	// European exercise: at expiry only.
	European = option.European
	// American exercise: any time up to expiry.
	American = option.American
	// CRR is the Cox-Ross-Rubinstein lattice parameterisation.
	CRR = option.CRR
	// JarrowRudd is the equal-probability parameterisation.
	JarrowRudd = option.JarrowRudd
	// Tian is the moment-matching parameterisation.
	Tian = option.Tian
)

// NewEngine returns the double-precision reference engine — the paper's
// "reference software" — with the given number of time steps.
func NewEngine(steps int) (*Engine, error) { return lattice.NewEngine(steps) }

// Price values the option on a reference binomial tree of the given
// depth (the paper evaluates at 1024 steps).
func Price(o Option, steps int) (float64, error) {
	e, err := lattice.NewEngine(steps)
	if err != nil {
		return 0, err
	}
	return e.Price(o)
}

// PriceWithGreeks values the option and returns its sensitivities.
func PriceWithGreeks(o Option, steps int) (float64, Greeks, error) {
	e, err := lattice.NewEngine(steps)
	if err != nil {
		return 0, Greeks{}, err
	}
	return e.PriceAndGreeks(o)
}

// PriceBatch values many options concurrently with the reference engine.
func PriceBatch(opts []Option, steps, workers int) ([]float64, error) {
	e, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, err
	}
	return e.PriceBatch(opts, workers)
}

// ImpliedVol recovers the volatility at which a binomial tree of the
// given depth reprices the quote (Brent's method). The option's Sigma
// field is ignored. It returns volatility.ErrNoVolInfo for quotes pinned
// at the zero-volatility floor.
func ImpliedVol(quote float64, o Option, steps int) (float64, error) {
	e, err := lattice.NewEngine(steps)
	if err != nil {
		return 0, err
	}
	return volatility.Brent(quote, o, e.Price)
}
