package heston

import (
	"math"
	"testing"

	"binopt/internal/bs"
	"binopt/internal/option"
)

// testParams is a well-behaved Heston set satisfying the Feller
// condition.
func testParams() Params {
	return Params{
		Spot:  100,
		Rate:  0.03,
		V0:    0.04,
		Kappa: 2.0,
		Theta: 0.04,
		Xi:    0.3,
		Rho:   -0.7,
	}
}

func TestValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Params){
		"zero spot":   func(p *Params) { p.Spot = 0 },
		"neg v0":      func(p *Params) { p.V0 = -0.1 },
		"zero kappa":  func(p *Params) { p.Kappa = 0 },
		"zero theta":  func(p *Params) { p.Theta = 0 },
		"zero xi":     func(p *Params) { p.Xi = 0 },
		"rho above 1": func(p *Params) { p.Rho = 1.5 },
		"nan rate":    func(p *Params) { p.Rate = math.NaN() },
	}
	for name, mutate := range mutations {
		p := testParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

func TestFeller(t *testing.T) {
	p := testParams() // 2*2*0.04 = 0.16 > 0.09
	if !p.FellerSatisfied() {
		t.Error("test params should satisfy Feller")
	}
	p.Xi = 1.0
	if p.FellerSatisfied() {
		t.Error("xi=1 should violate Feller")
	}
}

func TestClosedFormDegeneratesToBlackScholes(t *testing.T) {
	// With vanishing vol-of-vol and v0 = theta, the variance is constant
	// and Heston reduces to Black-Scholes with sigma = sqrt(theta).
	p := testParams()
	p.Xi = 1e-4
	p.V0 = p.Theta
	for _, k := range []float64{80, 100, 120} {
		got, err := EuropeanCall(p, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := bs.Price(option.Option{
			Right: option.Call, Style: option.European,
			Spot: p.Spot, Strike: k, Rate: p.Rate, Sigma: math.Sqrt(p.Theta), T: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-ref) > 2e-3 {
			t.Errorf("K=%v: heston %v vs bs %v", k, got, ref)
		}
	}
}

func TestClosedFormDeterministicVariancePath(t *testing.T) {
	// With xi -> 0 but v0 != theta, the variance follows its ODE and the
	// option prices like BS with the average variance over the life.
	p := testParams()
	p.Xi = 1e-4
	p.V0 = 0.09
	const T = 0.75
	// avg variance = theta + (v0-theta)(1-exp(-kT))/(kT)
	avg := p.Theta + (p.V0-p.Theta)*(1-math.Exp(-p.Kappa*T))/(p.Kappa*T)
	got, err := EuropeanCall(p, 100, T)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bs.Price(option.Option{
		Right: option.Call, Style: option.European,
		Spot: p.Spot, Strike: 100, Rate: p.Rate, Sigma: math.Sqrt(avg), T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-ref) > 2e-3 {
		t.Errorf("heston %v vs averaged-variance bs %v", got, ref)
	}
}

func TestClosedFormMonotoneInStrike(t *testing.T) {
	p := testParams()
	prev := math.Inf(1)
	for k := 70.0; k <= 130; k += 5 {
		c, err := EuropeanCall(p, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c > prev {
			t.Fatalf("call price rose with strike at K=%v", k)
		}
		prev = c
	}
}

func TestSkewFromCorrelation(t *testing.T) {
	// Negative rho fattens the left tail: OTM puts gain value relative
	// to rho=0, i.e. implied vol at low strikes is higher. By put-call
	// parity the put at K=80 differs from the call by a rho-free term,
	// so the call carries the same comparison.
	pNeg := testParams() // rho = -0.7
	pZero := testParams()
	pZero.Rho = 0
	lowNeg, err := EuropeanCall(pNeg, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	lowZero, err := EuropeanCall(pZero, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lowNeg <= lowZero {
		t.Errorf("negative rho should raise OTM put value: call(80) %v vs %v", lowNeg, lowZero)
	}
}

func TestClosedFormValidation(t *testing.T) {
	p := testParams()
	if _, err := EuropeanCall(p, -1, 1); err == nil {
		t.Error("negative strike should fail")
	}
	if _, err := EuropeanCall(p, 100, 0); err == nil {
		t.Error("zero expiry should fail")
	}
	bad := p
	bad.Xi = 0
	if _, err := EuropeanCall(bad, 100, 1); err == nil {
		t.Error("invalid params should fail")
	}
}
