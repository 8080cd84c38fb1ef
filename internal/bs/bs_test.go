package bs

import (
	"math"
	"testing"
	"testing/quick"

	"binopt/internal/mathx"
	"binopt/internal/option"
)

func euro(right option.Right) option.Option {
	return option.Option{
		Right:  right,
		Style:  option.European,
		Spot:   100,
		Strike: 100,
		Rate:   0.05,
		Sigma:  0.2,
		T:      1,
	}
}

func TestPriceKnownValues(t *testing.T) {
	// Hull, "Options, Futures & Other Derivatives" style reference values
	// recomputed independently at full precision.
	cases := []struct {
		name string
		o    option.Option
		want float64
	}{
		{"atm call", euro(option.Call), 10.450583572185565},
		{"atm put", euro(option.Put), 5.573526022256971},
		{
			"itm call",
			option.Option{Right: option.Call, Style: option.European,
				Spot: 110, Strike: 100, Rate: 0.05, Sigma: 0.2, T: 1},
			17.6629537405905,
		},
		{
			"hull 15.6 put",
			option.Option{Right: option.Put, Style: option.European,
				Spot: 42, Strike: 40, Rate: 0.10, Sigma: 0.2, T: 0.5},
			0.808599372900096,
		},
	}
	for _, c := range cases {
		got, err := Price(c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !mathx.AlmostEqual(got, c.want, 1e-12, 1e-12) {
			t.Errorf("%s: Price = %.15g, want %.15g", c.name, got, c.want)
		}
	}
}

func TestPriceTextbookValues(t *testing.T) {
	// Independent oracle: values quoted in Hull to two decimals.
	call, err := Price(option.Option{Right: option.Call, Style: option.European,
		Spot: 42, Strike: 40, Rate: 0.10, Sigma: 0.2, T: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(call-4.76) > 0.005 {
		t.Errorf("Hull call = %v, want 4.76", call)
	}
	put, err := Price(option.Option{Right: option.Put, Style: option.European,
		Spot: 42, Strike: 40, Rate: 0.10, Sigma: 0.2, T: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(put-0.81) > 0.005 {
		t.Errorf("Hull put = %v, want 0.81", put)
	}
}

func TestPriceRejectsAmerican(t *testing.T) {
	o := euro(option.Call)
	o.Style = option.American
	if _, err := Price(o); err == nil {
		t.Error("American option must be rejected by the closed form")
	}
}

func TestPriceRejectsInvalid(t *testing.T) {
	o := euro(option.Call)
	o.Sigma = 0
	if _, err := Price(o); err == nil {
		t.Error("invalid option must be rejected")
	}
}

func TestPutCallParity(t *testing.T) {
	f := func(rawS, rawK, rawSigma, rawT float64) bool {
		o := euro(option.Call)
		o.Spot = 20 + math.Abs(math.Mod(rawS, 300))
		o.Strike = 20 + math.Abs(math.Mod(rawK, 300))
		o.Sigma = 0.05 + math.Abs(math.Mod(rawSigma, 0.8))
		o.T = 0.05 + math.Abs(math.Mod(rawT, 3))
		call, err := Price(o)
		if err != nil {
			return false
		}
		o.Right = option.Put
		put, err := Price(o)
		if err != nil {
			return false
		}
		lhs := call - put
		rhs := o.Spot*math.Exp(-o.Div*o.T) - o.Strike*math.Exp(-o.Rate*o.T)
		return mathx.AlmostEqual(lhs, rhs, 1e-10, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGreeksAgainstFiniteDifferences(t *testing.T) {
	for _, right := range []option.Right{option.Call, option.Put} {
		o := euro(right)
		o.Div = 0.01
		v, g, err := PriceAndGreeks(o)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Fatalf("%v: price %v", right, v)
		}

		bump := func(mutate func(*option.Option, float64), h float64) float64 {
			up, dn := o, o
			mutate(&up, h)
			mutate(&dn, -h)
			vu, _ := Price(up)
			vd, _ := Price(dn)
			return (vu - vd) / (2 * h)
		}

		const h = 1e-4
		if fd := bump(func(x *option.Option, d float64) { x.Spot += d }, h*o.Spot); !mathx.AlmostEqual(g.Delta, fd, 1e-6, 1e-5) {
			t.Errorf("%v delta: analytic %v vs fd %v", right, g.Delta, fd)
		}
		if fd := bump(func(x *option.Option, d float64) { x.Sigma += d }, h); !mathx.AlmostEqual(g.Vega, fd, 1e-5, 1e-5) {
			t.Errorf("%v vega: analytic %v vs fd %v", right, g.Vega, fd)
		}
		if fd := bump(func(x *option.Option, d float64) { x.Rate += d }, h); !mathx.AlmostEqual(g.Rho, fd, 1e-5, 1e-5) {
			t.Errorf("%v rho: analytic %v vs fd %v", right, g.Rho, fd)
		}
		// Theta: d/dt of remaining life; bump T downward by h years.
		if fd := bump(func(x *option.Option, d float64) { x.T -= d }, h); !mathx.AlmostEqual(g.Theta, fd, 1e-4, 1e-4) {
			t.Errorf("%v theta: analytic %v vs fd %v", right, g.Theta, fd)
		}
		// Gamma via second difference of spot.
		up, dn := o, o
		up.Spot += 0.01
		dn.Spot -= 0.01
		vu, _ := Price(up)
		vd, _ := Price(dn)
		fdGamma := (vu - 2*v + vd) / (0.01 * 0.01)
		if !mathx.AlmostEqual(g.Gamma, fdGamma, 1e-5, 1e-4) {
			t.Errorf("%v gamma: analytic %v vs fd %v", right, g.Gamma, fdGamma)
		}
	}
}

func TestPriceBounds(t *testing.T) {
	// European call is bounded by S*exp(-qT) above and intrinsic of the
	// forward below.
	f := func(rawK float64) bool {
		o := euro(option.Call)
		o.Strike = 20 + math.Abs(math.Mod(rawK, 300))
		v, err := Price(o)
		if err != nil {
			return false
		}
		upper := o.Spot * math.Exp(-o.Div*o.T)
		lower := math.Max(0, o.Spot*math.Exp(-o.Div*o.T)-o.Strike*math.Exp(-o.Rate*o.T))
		return v >= lower-1e-12 && v <= upper+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
