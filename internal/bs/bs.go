// Package bs implements the Black–Scholes–Merton closed-form price and
// Greeks for European options. The lattice engines converge to these
// values as the step count grows, which is the primary correctness oracle
// for the reproduction (the paper's leaves "correspond to the pricing of
// European options and can be found analytically", §III-B).
package bs

import (
	"fmt"
	"math"

	"binopt/internal/mathx"
	"binopt/internal/option"
)

// Greeks bundles the standard first- and second-order sensitivities.
type Greeks struct {
	Delta float64 // dV/dS
	Gamma float64 // d2V/dS2
	Vega  float64 // dV/dSigma (per unit of volatility, not per %)
	Theta float64 // dV/dt (calendar decay, per year)
	Rho   float64 // dV/dRate
}

// d1d2 returns the two Black–Scholes auxiliary terms.
func d1d2(o option.Option) (d1, d2 float64) {
	volSqrtT := o.Sigma * math.Sqrt(o.T)
	d1 = (math.Log(o.Spot/o.Strike) + (o.Rate-o.Div+0.5*o.Sigma*o.Sigma)*o.T) / volSqrtT
	d2 = d1 - volSqrtT
	return d1, d2
}

// Price returns the Black–Scholes value of a European option. American
// contracts are rejected: no closed form exists for them, which is the
// entire reason the paper builds a lattice accelerator.
func Price(o option.Option) (float64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	if o.Style != option.European {
		return 0, fmt.Errorf("bs: closed form only prices European options, got %v", o.Style)
	}
	return price(o), nil
}

// price computes the closed form without re-validating; callers inside the
// package guarantee a valid European contract.
func price(o option.Option) float64 {
	d1, d2 := d1d2(o)
	dfDiv := math.Exp(-o.Div * o.T)
	dfRate := math.Exp(-o.Rate * o.T)
	if o.Right == option.Call {
		return o.Spot*dfDiv*mathx.NormCDF(d1) - o.Strike*dfRate*mathx.NormCDF(d2)
	}
	return o.Strike*dfRate*mathx.NormCDF(-d2) - o.Spot*dfDiv*mathx.NormCDF(-d1)
}

// PriceAndGreeks returns the closed-form value along with the analytic
// Greeks.
func PriceAndGreeks(o option.Option) (float64, Greeks, error) {
	v, err := Price(o)
	if err != nil {
		return 0, Greeks{}, err
	}
	d1, d2 := d1d2(o)
	dfDiv := math.Exp(-o.Div * o.T)
	dfRate := math.Exp(-o.Rate * o.T)
	sqrtT := math.Sqrt(o.T)
	pdf := mathx.NormPDF(d1)

	var g Greeks
	g.Gamma = dfDiv * pdf / (o.Spot * o.Sigma * sqrtT)
	g.Vega = o.Spot * dfDiv * pdf * sqrtT
	if o.Right == option.Call {
		g.Delta = dfDiv * mathx.NormCDF(d1)
		g.Theta = -o.Spot*dfDiv*pdf*o.Sigma/(2*sqrtT) -
			o.Rate*o.Strike*dfRate*mathx.NormCDF(d2) +
			o.Div*o.Spot*dfDiv*mathx.NormCDF(d1)
		g.Rho = o.Strike * o.T * dfRate * mathx.NormCDF(d2)
	} else {
		g.Delta = -dfDiv * mathx.NormCDF(-d1)
		g.Theta = -o.Spot*dfDiv*pdf*o.Sigma/(2*sqrtT) +
			o.Rate*o.Strike*dfRate*mathx.NormCDF(-d2) -
			o.Div*o.Spot*dfDiv*mathx.NormCDF(-d1)
		g.Rho = -o.Strike * o.T * dfRate * mathx.NormCDF(-d2)
	}
	return v, g, nil
}
