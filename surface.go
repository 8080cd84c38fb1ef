package binopt

import (
	"binopt/internal/lattice"
	"binopt/internal/volatility"
	"binopt/internal/workload"
)

// Quote pairs a contract with its observed market price.
type Quote = workload.Quote

// VolSurface is a queryable implied-volatility surface.
type VolSurface = volatility.Surface

// BuildVolSurface inverts a quote tape (multiple strikes and maturities)
// through binomial pricers of the given depth into an implied-volatility
// surface, returning the surface and the number of quotes skipped for
// carrying no volatility information. This is the multi-maturity
// extension of the paper's one-curve-per-second use case. workers bounds
// the goroutines of each batch pricing (<= 0: GOMAXPROCS).
func BuildVolSurface(quotes []Quote, steps, workers int) (*VolSurface, int, error) {
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, 0, err
	}
	return volatility.BuildSurface(quotes, func(opts []Option) ([]float64, error) {
		return eng.PriceBatch(opts, workers)
	})
}

// LoadQuotes reads a CSV quote tape (see SaveQuotes for the layout).
var LoadQuotes = workload.LoadQuotes

// SaveQuotes writes a CSV quote tape.
var SaveQuotes = workload.SaveQuotes
