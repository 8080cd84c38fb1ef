// Package option defines the financial contracts priced by this library:
// vanilla call and put options with European or American exercise, together
// with the market parameters and the precomputed Cox–Ross–Rubinstein (CRR)
// lattice coefficients the kernels consume.
package option

import (
	"fmt"
	"math"
)

// Right is the option right: the holder may buy (call) or sell (put) the
// underlying at the strike price.
type Right int

const (
	// Call gives the right to buy the underlying at the strike.
	Call Right = iota
	// Put gives the right to sell the underlying at the strike.
	Put
)

// String returns "call" or "put".
func (r Right) String() string {
	switch r {
	case Call:
		return "call"
	case Put:
		return "put"
	default:
		return fmt.Sprintf("Right(%d)", int(r))
	}
}

// Style is the exercise style. European options may be exercised only at
// expiry; American options at any time up to expiry, which is what makes
// their value path-dependent and analytically intractable (paper §III-A).
type Style int

const (
	// European exercise: at expiry only.
	European Style = iota
	// American exercise: any time up to expiry.
	American
)

// String returns "european" or "american".
func (s Style) String() string {
	switch s {
	case European:
		return "european"
	case American:
		return "american"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Option is a vanilla equity option contract plus the market state needed
// to price it. All rates are continuously compounded and annualised; T is
// in years.
type Option struct {
	Right  Right
	Style  Style
	Spot   float64 // current underlying price S0
	Strike float64 // strike price K
	Rate   float64 // risk-free rate r
	Div    float64 // continuous dividend yield q
	Sigma  float64 // volatility of the underlying
	T      float64 // time to expiry in years
}

// Validate reports whether the contract parameters are usable by the
// pricing engines.
func (o Option) Validate() error {
	switch {
	case o.Right != Call && o.Right != Put:
		return fmt.Errorf("option: invalid right %d", int(o.Right))
	case o.Style != European && o.Style != American:
		return fmt.Errorf("option: invalid style %d", int(o.Style))
	case !(o.Spot > 0) || math.IsInf(o.Spot, 0):
		return fmt.Errorf("option: spot must be positive and finite, got %v", o.Spot)
	case !(o.Strike > 0) || math.IsInf(o.Strike, 0):
		return fmt.Errorf("option: strike must be positive and finite, got %v", o.Strike)
	case !(o.T > 0) || math.IsInf(o.T, 0):
		return fmt.Errorf("option: expiry must be positive and finite, got %v", o.T)
	case !(o.Sigma > 0) || math.IsInf(o.Sigma, 0):
		return fmt.Errorf("option: volatility must be positive and finite, got %v", o.Sigma)
	case math.IsNaN(o.Rate) || math.IsInf(o.Rate, 0):
		return fmt.Errorf("option: rate must be finite, got %v", o.Rate)
	case math.IsNaN(o.Div) || math.IsInf(o.Div, 0) || o.Div < 0:
		return fmt.Errorf("option: dividend yield must be finite and non-negative, got %v", o.Div)
	}
	return nil
}

// Payoff returns the exercise value of the option when the underlying
// trades at price s.
func (o Option) Payoff(s float64) float64 {
	switch o.Right {
	case Call:
		return math.Max(s-o.Strike, 0)
	default:
		return math.Max(o.Strike-s, 0)
	}
}

// Intrinsic returns the payoff at the current spot.
func (o Option) Intrinsic() float64 { return o.Payoff(o.Spot) }

// String renders the contract compactly, e.g.
// "american put S=100 K=105 r=3.00% q=0.00% sigma=20.00% T=0.50y".
func (o Option) String() string {
	return fmt.Sprintf("%s %s S=%g K=%g r=%.2f%% q=%.2f%% sigma=%.2f%% T=%gy",
		o.Style, o.Right, o.Spot, o.Strike, 100*o.Rate, 100*o.Div, 100*o.Sigma, o.T)
}
