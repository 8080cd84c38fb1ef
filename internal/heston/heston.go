// Package heston implements the stochastic-volatility substrate of the
// paper's key related work: de Schryver et al. ([4]) built their
// energy-efficiency benchmark around barrier options under the Heston
// model, priced by a Multi-Level Monte Carlo method. This package
// provides the model (with the semi-analytic European price as the
// correctness oracle), full-truncation Euler simulation, barrier-option
// Monte Carlo, and the Giles MLMC estimator that [4] selected as the best
// accuracy/energy compromise.
package heston

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Params are the Heston square-root stochastic-variance dynamics:
//
//	dS = (r - q) S dt + sqrt(v) S dW_s
//	dv = kappa (theta - v) dt + xi sqrt(v) dW_v,   d<W_s, W_v> = rho dt
type Params struct {
	Spot  float64
	Rate  float64
	Div   float64
	V0    float64 // initial variance
	Kappa float64 // mean-reversion speed
	Theta float64 // long-run variance
	Xi    float64 // volatility of variance
	Rho   float64 // spot/variance correlation
}

// Validate rejects unusable parameter sets.
func (p Params) Validate() error {
	switch {
	case !(p.Spot > 0) || math.IsInf(p.Spot, 0):
		return fmt.Errorf("heston: spot must be positive, got %v", p.Spot)
	case !(p.V0 >= 0) || math.IsInf(p.V0, 0):
		return fmt.Errorf("heston: v0 must be non-negative, got %v", p.V0)
	case !(p.Kappa > 0):
		return fmt.Errorf("heston: kappa must be positive, got %v", p.Kappa)
	case !(p.Theta > 0):
		return fmt.Errorf("heston: theta must be positive, got %v", p.Theta)
	case !(p.Xi > 0):
		return fmt.Errorf("heston: xi must be positive, got %v", p.Xi)
	case p.Rho < -1 || p.Rho > 1 || math.IsNaN(p.Rho):
		return fmt.Errorf("heston: rho must be in [-1,1], got %v", p.Rho)
	case math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0):
		return fmt.Errorf("heston: rate must be finite, got %v", p.Rate)
	case math.IsNaN(p.Div) || math.IsInf(p.Div, 0):
		return fmt.Errorf("heston: dividend yield must be finite, got %v", p.Div)
	}
	return nil
}

// EuropeanCall returns the semi-analytic Heston price of a European call
// with strike k and expiry t, using the "little Heston trap"
// formulation of the characteristic function (numerically stable for
// long maturities) integrated by composite Simpson quadrature.
func EuropeanCall(p Params, k, t float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if !(k > 0) || !(t > 0) {
		return 0, fmt.Errorf("heston: strike and expiry must be positive (K=%v, T=%v)", k, t)
	}
	p1 := probability(p, k, t, 1)
	p2 := probability(p, k, t, 2)
	call := p.Spot*math.Exp(-p.Div*t)*p1 - k*math.Exp(-p.Rate*t)*p2
	if call < 0 {
		call = 0
	}
	return call, nil
}

// probability evaluates P_j = 1/2 + (1/pi) Int_0^inf Re(e^{-iu lnK}
// f_j(u)/(iu)) du for j in {1, 2}.
func probability(p Params, k, t float64, j int) float64 {
	lnK := math.Log(k)
	integrand := func(u float64) float64 {
		fu := charFn(p, u, t, j)
		val := cmplx.Exp(complex(0, -u*lnK)) * fu / complex(0, u)
		return real(val)
	}
	// Composite Simpson on (0, uMax]; the integrand decays like
	// exp(-c u) for Heston, so 200 is ample for typical parameters.
	const uMax = 200.0
	const n = 2000 // intervals (even)
	h := uMax / n
	sum := 0.0
	for i := 0; i <= n; i++ {
		u := float64(i) * h
		if i == 0 {
			u = 1e-9 // the integrand has a removable singularity at 0
		}
		w := 2.0
		switch {
		case i == 0 || i == n:
			w = 1
		case i%2 == 1:
			w = 4
		}
		sum += w * integrand(u)
	}
	pj := 0.5 + sum*h/(3*math.Pi)
	// Probabilities are clamped against quadrature noise at the tails.
	if pj < 0 {
		pj = 0
	}
	if pj > 1 {
		pj = 1
	}
	return pj
}

// charFn is the little-trap Heston characteristic function component.
func charFn(p Params, u, t float64, j int) complex128 {
	var uj, bj float64
	if j == 1 {
		uj = 0.5
		bj = p.Kappa - p.Rho*p.Xi
	} else {
		uj = -0.5
		bj = p.Kappa
	}
	a := p.Kappa * p.Theta
	x := math.Log(p.Spot)
	iu := complex(0, u)

	beta := complex(bj, 0) - complex(p.Rho*p.Xi, 0)*iu
	d := cmplx.Sqrt(beta*beta - complex(p.Xi*p.Xi, 0)*(2*complex(uj, 0)*iu-complex(u*u, 0)))
	// Little trap: c = (beta - d)/(beta + d), use exp(-d t).
	c := (beta - d) / (beta + d)
	edt := cmplx.Exp(-d * complex(t, 0))
	one := complex(1, 0)

	bigC := complex((p.Rate-p.Div)*t, 0)*iu +
		complex(a/(p.Xi*p.Xi), 0)*((beta-d)*complex(t, 0)-2*cmplx.Log((one-c*edt)/(one-c)))
	bigD := (beta - d) / complex(p.Xi*p.Xi, 0) * (one - edt) / (one - c*edt)

	return cmplx.Exp(bigC + bigD*complex(p.V0, 0) + iu*complex(x, 0))
}
