package option

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample() Option {
	return Option{
		Right:  Put,
		Style:  American,
		Spot:   100,
		Strike: 105,
		Rate:   0.03,
		Sigma:  0.2,
		T:      0.5,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid option rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := map[string]func(*Option){
		"zero spot":      func(o *Option) { o.Spot = 0 },
		"negative spot":  func(o *Option) { o.Spot = -1 },
		"inf spot":       func(o *Option) { o.Spot = math.Inf(1) },
		"zero strike":    func(o *Option) { o.Strike = 0 },
		"nan strike":     func(o *Option) { o.Strike = math.NaN() },
		"zero expiry":    func(o *Option) { o.T = 0 },
		"negative vol":   func(o *Option) { o.Sigma = -0.2 },
		"zero vol":       func(o *Option) { o.Sigma = 0 },
		"nan rate":       func(o *Option) { o.Rate = math.NaN() },
		"inf rate":       func(o *Option) { o.Rate = math.Inf(-1) },
		"negative div":   func(o *Option) { o.Div = -0.01 },
		"invalid right":  func(o *Option) { o.Right = Right(7) },
		"invalid style":  func(o *Option) { o.Style = Style(7) },
		"nan volatility": func(o *Option) { o.Sigma = math.NaN() },
	}
	for name, mutate := range mutations {
		o := sample()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestPayoff(t *testing.T) {
	call := sample()
	call.Right = Call
	put := sample()

	if got := call.Payoff(120); got != 15 {
		t.Errorf("call payoff at 120 = %v, want 15", got)
	}
	if got := call.Payoff(90); got != 0 {
		t.Errorf("call payoff at 90 = %v, want 0", got)
	}
	if got := put.Payoff(90); got != 15 {
		t.Errorf("put payoff at 90 = %v, want 15", got)
	}
	if got := put.Payoff(120); got != 0 {
		t.Errorf("put payoff at 120 = %v, want 0", got)
	}
}

func TestPayoffNonNegativeProperty(t *testing.T) {
	f := func(s float64, isCall bool) bool {
		s = math.Abs(math.Mod(s, 1e6))
		o := sample()
		if isCall {
			o.Right = Call
		}
		return o.Payoff(s) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntrinsicAndMoneyness(t *testing.T) {
	o := sample() // put, S=100, K=105
	if got := o.Intrinsic(); got != 5 {
		t.Errorf("intrinsic = %v, want 5", got)
	}
}

func TestStringers(t *testing.T) {
	if s := sample().String(); !strings.Contains(s, "american put") {
		t.Errorf("String() = %q", s)
	}
	if Call.String() != "call" || Put.String() != "put" {
		t.Error("Right.String broken")
	}
	if European.String() != "european" || American.String() != "american" {
		t.Error("Style.String broken")
	}
	if !strings.Contains(Right(9).String(), "9") || !strings.Contains(Style(9).String(), "9") {
		t.Error("unknown enum values should print their number")
	}
	for _, p := range []Parameterisation{CRR, JarrowRudd, Tian, Parameterisation(9)} {
		if p.String() == "" {
			t.Error("empty Parameterisation string")
		}
	}
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
