package binopt

import (
	"fmt"

	"binopt/internal/lattice"
	"binopt/internal/option"
)

// Position is a signed holding of one contract (negative quantity =
// short).
type Position struct {
	Option   Option
	Quantity float64
}

// Portfolio is a book of option positions.
type Portfolio []Position

// PositionReport is one position's valuation.
type PositionReport struct {
	Position Position
	Price    float64
	Greeks   Greeks
}

// PortfolioReport aggregates a book: total value and net Greeks, with
// the per-position breakdown.
type PortfolioReport struct {
	Value     float64
	Greeks    Greeks
	Positions []PositionReport
}

// ValuePortfolio prices every position on lattices of the given depth
// and aggregates value and Greeks, quantity-weighted. This is the
// desk-side loop the accelerator's throughput target exists to serve: a
// book revaluation is just a batch of tree pricings, so it routes
// through the quad-interleaved batch path — each position's base and
// four vega/rho bump contracts are five lanes packed with the rest of
// the book into full quad groups, instead of the five scalar sweeps of
// the per-position loop. Results are bit-identical to pricing each position
// alone through Engine.PriceAndGreeks (the scalar bit-parity
// reference); portfolio_test.go pins the parity and benchmarks the
// speedup.
//
// An empty book values to the zero report with no error, matching the
// scenario engine's convention: revaluing nothing is worth exactly
// nothing. On the first failing position the dispatcher stops handing
// out work and the error names the contract, not just its index.
func ValuePortfolio(book Portfolio, steps, workers int) (PortfolioReport, error) {
	if len(book) == 0 {
		return PortfolioReport{}, nil
	}
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		return PortfolioReport{}, err
	}
	opts := make([]option.Option, len(book))
	for i, pos := range book {
		opts[i] = pos.Option
	}
	prices, greeks, err := eng.PriceAndGreeksBatch(opts, workers)
	if err != nil {
		return PortfolioReport{}, fmt.Errorf("binopt: portfolio: %w", err)
	}

	var out PortfolioReport
	out.Positions = make([]PositionReport, len(book))
	for i, pos := range book {
		out.Positions[i] = PositionReport{Position: pos, Price: prices[i], Greeks: greeks[i]}
		q := pos.Quantity
		out.Value += q * prices[i]
		out.Greeks.Delta += q * greeks[i].Delta
		out.Greeks.Gamma += q * greeks[i].Gamma
		out.Greeks.Theta += q * greeks[i].Theta
		out.Greeks.Vega += q * greeks[i].Vega
		out.Greeks.Rho += q * greeks[i].Rho
	}
	return out, nil
}
