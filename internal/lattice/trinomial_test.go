package lattice

import (
	"math"
	"testing"

	"binopt/internal/bs"
	"binopt/internal/option"
)

func TestTrinomialEuropeanConvergesToBS(t *testing.T) {
	o := amPut()
	o.Style = option.European
	ref, err := bs.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewTrinomialEngine(512)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-ref) > 5e-3 {
		t.Errorf("trinomial %v vs BS %v", got, ref)
	}
}

func TestTrinomialBeatsBinomialPerLevel(t *testing.T) {
	// At matched depth the trinomial's richer branching should beat the
	// binomial on a strike sweep (both oscillate pointwise).
	o := amPut()
	o.Style = option.European
	var binErr, triErr float64
	for i := 0; i < 7; i++ {
		oo := o
		oo.Strike = 85 + 5*float64(i)
		ref, err := bs.Price(oo)
		if err != nil {
			t.Fatal(err)
		}
		be := mustEngine(t, 128)
		bv, err := be.Price(oo)
		if err != nil {
			t.Fatal(err)
		}
		te, err := NewTrinomialEngine(128)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := te.Price(oo)
		if err != nil {
			t.Fatal(err)
		}
		binErr += math.Abs(bv - ref)
		triErr += math.Abs(tv - ref)
	}
	if triErr > binErr {
		t.Errorf("trinomial mean error %g worse than binomial %g at equal depth", triErr/7, binErr/7)
	}
}

func TestTrinomialAmericanMatchesBinomial(t *testing.T) {
	o := amPut()
	te, err := NewTrinomialEngine(1024)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := te.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	be := mustEngine(t, 4096)
	bv, err := be.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tv-bv) > 5e-3 {
		t.Errorf("trinomial american %v vs deep binomial %v", tv, bv)
	}
}

func TestTrinomialAmericanAboveEuropean(t *testing.T) {
	e, err := NewTrinomialEngine(256)
	if err != nil {
		t.Fatal(err)
	}
	am, err := e.Price(amPut())
	if err != nil {
		t.Fatal(err)
	}
	euro := amPut()
	euro.Style = option.European
	eu, err := e.Price(euro)
	if err != nil {
		t.Fatal(err)
	}
	if am < eu {
		t.Errorf("american %v below european %v", am, eu)
	}
}

func TestTrinomialValidation(t *testing.T) {
	if _, err := NewTrinomialEngine(0); err == nil {
		t.Error("zero steps should fail")
	}
	e, err := NewTrinomialEngine(8)
	if err != nil {
		t.Fatal(err)
	}
	bad := amPut()
	bad.Sigma = -1
	if _, err := e.Price(bad); err == nil {
		t.Error("invalid option should fail")
	}
	// Degenerate probabilities: huge drift against tiny vol at 1 step.
	drifty := amPut()
	drifty.Rate = 0.9
	drifty.Sigma = 0.02
	one, err := NewTrinomialEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Price(drifty); err == nil {
		t.Error("degenerate probabilities should fail")
	}
}
