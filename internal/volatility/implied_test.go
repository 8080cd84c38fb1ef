package volatility

import (
	"errors"
	"math"
	"testing"

	"binopt/internal/bs"
	"binopt/internal/lattice"
	"binopt/internal/option"
)

func euro() option.Option {
	return option.Option{
		Right: option.Put, Style: option.European,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
}

func TestRoundTripBlackScholes(t *testing.T) {
	// Price at a known sigma with the closed form, then recover it.
	for _, trueSigma := range []float64{0.08, 0.2, 0.45, 0.9} {
		o := euro()
		o.Sigma = trueSigma
		price, err := bs.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Brent(price, o, bs.Price)
		if err != nil {
			t.Fatalf("sigma=%v: %v", trueSigma, err)
		}
		if math.Abs(got-trueSigma) > 1e-5 {
			t.Errorf("recovered %v, want %v", got, trueSigma)
		}
	}
}

func TestRoundTripLatticeAmerican(t *testing.T) {
	// The real use case: invert an American binomial price.
	eng, err := lattice.NewEngine(128)
	if err != nil {
		t.Fatal(err)
	}
	o := euro()
	o.Style = option.American
	o.Sigma = 0.27
	price, err := eng.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Brent(price, o, eng.Price)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.27) > 1e-4 {
		t.Errorf("recovered %v, want 0.27", got)
	}
}

func TestQuoteValidation(t *testing.T) {
	// Each is rejected before a single pricing.
	pf := func(option.Option) (float64, error) {
		t.Fatal("an invalid quote was priced")
		return 0, nil
	}
	o := euro()
	if _, err := Brent(-1, o, pf); err == nil {
		t.Error("negative price should fail")
	}
	if _, err := Brent(0, o, pf); err == nil {
		t.Error("zero price should fail")
	}
	if _, err := Brent(math.NaN(), o, pf); err == nil {
		t.Error("NaN price should fail")
	}
	// Put priced above strike is impossible.
	if _, err := Brent(200, o, pf); err == nil {
		t.Error("impossible put quote should fail")
	}
	call := o
	call.Right = option.Call
	if _, err := Brent(150, call, pf); err == nil {
		t.Error("call above spot should fail")
	}
}

func TestUnattainableQuote(t *testing.T) {
	// A price below the zero-volatility floor of an ITM European put is
	// valid-looking but unattainable.
	o := euro()
	o.Strike = 150
	floor, err := bs.Price(func() option.Option { oo := o; oo.Sigma = VolMin; return oo }())
	if err != nil {
		t.Fatal(err)
	}
	bad := floor * 0.5
	if _, err := Brent(bad, o, bs.Price); err == nil || errors.Is(err, ErrNoVolInfo) {
		t.Errorf("below-floor quote: err = %v, want an unattainable-quote error", err)
	}
	// Above the VolMax price the quote is not bracketed either.
	o.Strike = 105
	top, err := bs.Price(func() option.Option { oo := o; oo.Sigma = VolMax; return oo }())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Brent(math.Min(top+1e-3, o.Strike), o, bs.Price); err == nil {
		t.Error("quote above the VolMax price should fail")
	}
}

func TestExtremeITMQuoteHasNoVolInfo(t *testing.T) {
	// So deep in the money that the price is flat in sigma to within the
	// tolerance: the solvers must classify it rather than return an
	// arbitrary sigma.
	o := euro()
	o.Strike = 180
	o.T = 0.05
	o.Sigma = 0.3
	price, err := bs.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Brent(price, o, bs.Price); !errors.Is(err, ErrNoVolInfo) {
		t.Errorf("err = %v, want ErrNoVolInfo", err)
	}
}

func TestSolverEfficiencyOrdering(t *testing.T) {
	// Brent should need far fewer pricings than bisection, which spends
	// two pricings classifying and bracketing the quote and then one per
	// halving of [VolMin, VolMax] down to the 1e-12 stopping width.
	n := 0
	pf := func(o option.Option) (float64, error) {
		n++
		return bs.Price(o)
	}
	o := euro()
	o.Sigma = 0.33
	price, err := bs.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Brent(price, o, pf); err != nil {
		t.Fatal(err)
	}
	nBisect := 2 + int(math.Ceil(math.Log2((VolMax-VolMin)/1e-12)))
	if n > 15 || n >= nBisect {
		t.Errorf("brent used %d pricings; want at most 15 and fewer than bisection's %d", n, nBisect)
	}
}
