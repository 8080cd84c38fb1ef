// Package volatility recovers implied volatilities from option quotes —
// the decision-aid use case that motivates the paper's accelerator: "a
// trader can use our work to estimate the implied volatility curve of an
// option ... A second per volatility curve (2000 option values per
// volatility curve for accuracy considerations)" (§I). The one solver,
// Brent's method, is generic over the pricing engine, so the same curve
// can be produced by the reference software or by either OpenCL kernel.
package volatility

import (
	"errors"
	"fmt"
	"math"

	"binopt/internal/option"
)

// ErrNoVolInfo marks a quote sitting on the zero-volatility price floor —
// typically a deep in-the-money American option pinned at intrinsic
// value, whose price is flat in sigma. No implied volatility is defined
// there; curve construction skips such quotes, as trading desks do.
var ErrNoVolInfo = errors.New("volatility: quote at the zero-volatility floor carries no volatility information")

// PriceFunc prices a contract; the sigma to invert is carried inside the
// option. The lattice engines and the Black–Scholes closed form both
// satisfy it directly.
type PriceFunc func(option.Option) (float64, error)

// Solver bounds and defaults.
const (
	// VolMin and VolMax bracket every realistic implied volatility.
	// VolMin stays above the CRR feasibility bound sigma > |r-q|*sqrt(dt)
	// (below it the risk-neutral probability leaves (0,1) and lattice
	// pricers reject the contract).
	VolMin = 5e-3
	VolMax = 4.0
	// DefaultTol is the price-space convergence tolerance.
	DefaultTol = 1e-8
	// DefaultMaxIter bounds Brent's steps per quote.
	DefaultMaxIter = 100
)

// checkQuote rejects prices that no volatility can explain: below the
// zero-volatility floor or above the spot bound.
func checkQuote(price float64, o option.Option) error {
	if math.IsNaN(price) || price <= 0 {
		return fmt.Errorf("volatility: quote %v is not a positive price", price)
	}
	if o.Right == option.Call && price > o.Spot {
		return fmt.Errorf("volatility: call quote %v above spot %v has no implied volatility", price, o.Spot)
	}
	if o.Right == option.Put && price > o.Strike {
		return fmt.Errorf("volatility: put quote %v above strike %v has no implied volatility", price, o.Strike)
	}
	return nil
}

// brent is one quote's Brent's-method inversion held as a resumable
// state: start and next hand out the sigma at which to price the
// contract next, and take back the price found there, so that a caller
// may price the trial sigmas of many quotes in one batch. The trial
// sequence is fixed: one pricing at VolMin classifies the quote against
// the zero-volatility floor, one at VolMax closes the bracket, then
// inverse quadratic interpolation, secant and bisection steps run until
// the price is within DefaultTol or DefaultMaxIter steps are spent.
type brent struct {
	price, sigma float64 // the quote and the last Brent step's trial sigma
	step         int     // 0: floor pricing, 1: bracket pricing, 2+: Brent steps
	// Bracket [a, b] with b the best estimate, c the previous b and d
	// the one before it; f* are the price residuals there.
	a, b, c, d, fa, fb, fc float64
	mflag                  bool
	err                    error // why the inversion stopped without a volatility
}

// start validates the quote and returns the first sigma to price, or
// done when the quote is rejected outright (err says why).
func (s *brent) start(price float64, o option.Option) (sigma float64, done bool) {
	*s = brent{price: price}
	if s.err = checkQuote(price, o); s.err != nil {
		return 0, true
	}
	return VolMin, false
}

// next takes the price at the sigma last handed out and returns the next
// sigma to price, or done with the implied volatility (0 and err set
// when the quote has none).
func (s *brent) next(v float64) (sigma float64, done bool) {
	f := v - s.price
	switch s.step {
	case 0:
		// The floor: below it the quote is unattainable, on it the
		// quote carries no volatility information.
		switch {
		case s.price < v-DefaultTol:
			return s.fail(fmt.Errorf("volatility: quote %v below the zero-volatility floor %v", s.price, v))
		case s.price <= v+DefaultTol:
			return s.fail(ErrNoVolInfo)
		}
		s.a, s.fa = VolMin, f
		s.step = 1
		return VolMax, false
	case 1:
		s.b, s.fb = VolMax, f
		if s.fa*s.fb > 0 {
			return s.fail(fmt.Errorf("volatility: quote %v not bracketed by [%v, %v]", s.price, VolMin, VolMax))
		}
		if math.Abs(s.fa) < math.Abs(s.fb) {
			s.a, s.b, s.fa, s.fb = s.b, s.a, s.fb, s.fa
		}
		s.c, s.fc = s.a, s.fa
		s.d = s.b - s.a
		s.mflag = true
	default:
		s.d = s.c
		s.c, s.fc = s.b, s.fb
		if s.fa*f < 0 {
			s.b, s.fb = s.sigma, f
		} else {
			s.a, s.fa = s.sigma, f
		}
		if math.Abs(s.fa) < math.Abs(s.fb) {
			s.a, s.b, s.fa, s.fb = s.b, s.a, s.fb, s.fa
		}
		if math.Abs(s.b-s.a) < 1e-12 {
			return s.b, true
		}
	}
	s.step++
	if s.step-2 >= DefaultMaxIter || math.Abs(s.fb) < DefaultTol {
		return s.b, true
	}
	a, b, c := s.a, s.b, s.c
	var x float64
	//binopt:ignore floateq Brent's method guard: exact inequality is what keeps the IQI denominators nonzero
	if s.fa != s.fc && s.fb != s.fc {
		// Inverse quadratic interpolation.
		x = a*s.fb*s.fc/((s.fa-s.fb)*(s.fa-s.fc)) +
			b*s.fa*s.fc/((s.fb-s.fa)*(s.fb-s.fc)) +
			c*s.fa*s.fb/((s.fc-s.fa)*(s.fc-s.fb))
	} else {
		// Secant.
		x = b - s.fb*(b-a)/(s.fb-s.fa)
	}
	lo, hi := (3*a+b)/4, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if x < lo || x > hi ||
		(s.mflag && math.Abs(x-b) >= math.Abs(b-c)/2) ||
		(!s.mflag && math.Abs(x-b) >= math.Abs(c-s.d)/2) ||
		(s.mflag && math.Abs(b-c) < 1e-14) ||
		(!s.mflag && math.Abs(c-s.d) < 1e-14) {
		x = 0.5 * (a + b)
		s.mflag = true
	} else {
		s.mflag = false
	}
	s.sigma = x
	return x, false
}

// fail ends the inversion with err.
func (s *brent) fail(err error) (float64, bool) {
	s.err = err
	return 0, true
}

// Brent recovers the implied volatility with Brent's method: bracketing
// with inverse quadratic interpolation, the best of both worlds at ~10-15
// pricings per quote. It prices one trial at a time; Curve runs the same
// per-quote state for a whole chain in batch rounds.
func Brent(price float64, o option.Option, pf PriceFunc) (float64, error) {
	var s brent
	sigma, done := s.start(price, o)
	for !done {
		o.Sigma = sigma
		v, err := pf(o)
		if err != nil {
			return 0, err
		}
		sigma, done = s.next(v)
	}
	return sigma, s.err
}
