package binopt

import (
	"math"
	"strings"
	"testing"

	"binopt/internal/lattice"
)

func testBook() Portfolio {
	long := demoOption()
	short := demoOption()
	short.Right = Call
	short.Strike = 110
	return Portfolio{
		{Option: long, Quantity: 10},
		{Option: short, Quantity: -5},
	}
}

// bigBook builds a deterministic mixed book spanning rights × styles,
// large enough to exercise the quad grouping and worker dispatch.
func bigBook(n int) Portfolio {
	book := make(Portfolio, n)
	for i := range book {
		o := demoOption()
		o.Strike = 85 + float64(i%40)
		o.Sigma = 0.12 + 0.002*float64(i%80)
		o.T = 0.25 + 0.05*float64(i%8)
		if i%2 == 1 {
			o.Right = Call
		}
		if i%3 == 2 {
			o.Style = European
		}
		q := float64(i%7 + 1)
		if i%5 == 0 {
			q = -q
		}
		book[i] = Position{Option: o, Quantity: q}
	}
	return book
}

// valuePortfolioScalar is the pre-fix per-position loop — one
// PriceAndGreeks call per position, five scalar sweeps each. It stays
// here as the bit-parity reference the quad-batched ValuePortfolio is
// pinned against, and as the benchmark baseline.
func valuePortfolioScalar(book Portfolio, steps int) (PortfolioReport, error) {
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		return PortfolioReport{}, err
	}
	var out PortfolioReport
	out.Positions = make([]PositionReport, len(book))
	for i, pos := range book {
		price, greeks, err := eng.PriceAndGreeks(pos.Option)
		if err != nil {
			return PortfolioReport{}, err
		}
		out.Positions[i] = PositionReport{Position: pos, Price: price, Greeks: greeks}
		q := pos.Quantity
		out.Value += q * price
		out.Greeks.Delta += q * greeks.Delta
		out.Greeks.Gamma += q * greeks.Gamma
		out.Greeks.Theta += q * greeks.Theta
		out.Greeks.Vega += q * greeks.Vega
		out.Greeks.Rho += q * greeks.Rho
	}
	return out, nil
}

func TestValuePortfolioAggregates(t *testing.T) {
	book := testBook()
	rep, err := ValuePortfolio(book, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Positions) != 2 {
		t.Fatalf("got %d position reports", len(rep.Positions))
	}
	// Recompute the aggregate by hand.
	var value, delta float64
	for _, pr := range rep.Positions {
		value += pr.Position.Quantity * pr.Price
		delta += pr.Position.Quantity * pr.Greeks.Delta
	}
	if math.Abs(rep.Value-value) > 1e-12 || math.Abs(rep.Greeks.Delta-delta) > 1e-12 {
		t.Errorf("aggregation mismatch: %v/%v vs %v/%v", rep.Value, rep.Greeks.Delta, value, delta)
	}
	// Long puts + short calls: both legs have negative delta exposure.
	if rep.Greeks.Delta >= 0 {
		t.Errorf("book delta = %v, want negative", rep.Greeks.Delta)
	}
	if rep.Value <= 0 {
		t.Errorf("book value = %v (long puts dominate)", rep.Value)
	}
}

// TestValuePortfolioScalarParity pins the quad-batched revaluation
// bit-identical to the pre-fix scalar loop on a mixed book.
func TestValuePortfolioScalarParity(t *testing.T) {
	book := bigBook(41)
	ref, err := valuePortfolioScalar(book, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := ValuePortfolio(book, 128, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Value != ref.Value || got.Greeks != ref.Greeks {
			t.Fatalf("workers=%d aggregate diverged: %v/%+v vs %v/%+v",
				workers, got.Value, got.Greeks, ref.Value, ref.Greeks)
		}
		for i := range book {
			if got.Positions[i].Price != ref.Positions[i].Price {
				t.Fatalf("workers=%d position %d price: %v != %v",
					workers, i, got.Positions[i].Price, ref.Positions[i].Price)
			}
			if got.Positions[i].Greeks != ref.Positions[i].Greeks {
				t.Fatalf("workers=%d position %d greeks: %+v != %+v",
					workers, i, got.Positions[i].Greeks, ref.Positions[i].Greeks)
			}
		}
	}
}

func TestValuePortfolioDeterministicAcrossWorkers(t *testing.T) {
	book := testBook()
	a, err := ValuePortfolio(book, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValuePortfolio(book, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Greeks != b.Greeks {
		t.Error("worker count changed the result")
	}
}

// TestValuePortfolioEmptyBook pins the documented convention: an empty
// book values to the zero report with no error, the same contract the
// scenario engine relies on.
func TestValuePortfolioEmptyBook(t *testing.T) {
	for _, book := range []Portfolio{nil, {}} {
		rep, err := ValuePortfolio(book, 128, 1)
		if err != nil {
			t.Fatalf("empty book should value to zero, got error: %v", err)
		}
		if rep.Value != 0 || rep.Greeks != (Greeks{}) || len(rep.Positions) != 0 {
			t.Errorf("empty book report not zero: %+v", rep)
		}
	}
}

func TestValuePortfolioErrors(t *testing.T) {
	bad := testBook()
	bad[1].Option.Sigma = -1
	_, err := ValuePortfolio(bad, 128, 2)
	if err == nil {
		t.Fatal("invalid position should fail")
	}
	// The error names the failing contract, not just its index.
	if !strings.Contains(err.Error(), "option 1") {
		t.Errorf("error should name the position index: %v", err)
	}
	if !strings.Contains(err.Error(), bad[1].Option.String()) {
		t.Errorf("error should carry the contract identity %q: %v", bad[1].Option.String(), err)
	}
	if _, err := ValuePortfolio(testBook(), 0, 1); err == nil {
		t.Error("zero steps should fail")
	}
}

// The benchmark pair demonstrates the quad speedup reaching book
// revaluation: the quad path replaces the five scalar sweeps per
// position with five lanes of shared quad sweeps (1.25 sweeps under
// CRR). Run with -bench=ValuePortfolio; the allocs/op gate on
// BenchmarkPriceAndGreeksBatch1024 in scripts/coldpath_smoke.sh keeps
// the path on quad lanes in CI.
func BenchmarkValuePortfolioQuad(b *testing.B) {
	book := bigBook(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ValuePortfolio(book, 512, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValuePortfolioScalarRef(b *testing.B) {
	book := bigBook(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := valuePortfolioScalar(book, 512); err != nil {
			b.Fatal(err)
		}
	}
}
