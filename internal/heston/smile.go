package heston

import (
	"fmt"

	"binopt/internal/bs"
	"binopt/internal/option"
	"binopt/internal/volatility"
)

// SmilePoint is one strike's Black-Scholes-implied volatility under the
// Heston model.
type SmilePoint struct {
	Strike  float64
	Implied float64
}

// ImpliedSmile converts Heston prices into the Black-Scholes implied
// volatilities at the given strikes — the model-generated smile. With
// negative spot/variance correlation the curve skews downward, the
// stylised equity fact stochastic-volatility models exist to capture;
// the test suite asserts exactly that shape.
func ImpliedSmile(p Params, strikes []float64, t float64) ([]SmilePoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(strikes) == 0 {
		return nil, fmt.Errorf("heston: no strikes for smile")
	}
	out := make([]SmilePoint, 0, len(strikes))
	for _, k := range strikes {
		price, err := EuropeanCall(p, k, t)
		if err != nil {
			return nil, err
		}
		contract := option.Option{
			Right: option.Call, Style: option.European,
			Spot: p.Spot, Strike: k, Rate: p.Rate, Div: p.Div,
			Sigma: 0.2, // placeholder; the solver owns sigma
			T:     t,
		}
		iv, err := volatility.Brent(price, contract, bs.Price)
		if err != nil {
			return nil, fmt.Errorf("heston: smile at K=%v: %w", k, err)
		}
		out = append(out, SmilePoint{Strike: k, Implied: iv})
	}
	return out, nil
}
