package option

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewLatticeParamsCRR(t *testing.T) {
	o := sample()
	lp, err := NewLatticeParams(o, 1024, CRR)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Steps != 1024 {
		t.Errorf("Steps = %d", lp.Steps)
	}
	if !almostEqual(lp.Dt, o.T/1024) {
		t.Errorf("Dt = %v", lp.Dt)
	}
	if !almostEqual(lp.U*lp.D, 1) {
		t.Errorf("CRR must have u*d = 1, got %v", lp.U*lp.D)
	}
	if !(lp.P > 0 && lp.P < 1) {
		t.Errorf("P = %v outside (0,1)", lp.P)
	}
	if !almostEqual(lp.Disc, math.Exp(-o.Rate*lp.Dt)) {
		t.Errorf("Disc = %v", lp.Disc)
	}
	if !almostEqual(lp.Pu+lp.Pd, lp.Disc) {
		t.Errorf("Pu+Pd = %v, want Disc = %v", lp.Pu+lp.Pd, lp.Disc)
	}
}

func TestNewLatticeParamsErrors(t *testing.T) {
	o := sample()
	if _, err := NewLatticeParams(o, 0, CRR); err == nil {
		t.Error("N=0 should fail")
	}
	bad := o
	bad.Spot = -1
	if _, err := NewLatticeParams(bad, 16, CRR); err == nil {
		t.Error("invalid option should fail")
	}
	if _, err := NewLatticeParams(o, 16, Parameterisation(42)); err == nil {
		t.Error("unknown parameterisation should fail")
	}
	// Drift dominating volatility per step makes p >= 1 under CRR.
	drifty := o
	drifty.Rate = 0.9
	drifty.Sigma = 0.05
	if _, err := NewLatticeParams(drifty, 1, CRR); !errors.Is(err, ErrProbabilityRange) {
		t.Errorf("p outside (0,1): err = %v, want ErrProbabilityRange", err)
	}
}

func TestMartingaleProperty(t *testing.T) {
	// p*u + (1-p)*d must equal the risk-neutral growth factor for CRR and
	// Tian; Jarrow–Rudd matches it only to O(dt^2).
	o := sample()
	for _, param := range []Parameterisation{CRR, Tian} {
		lp, err := NewLatticeParams(o, 256, param)
		if err != nil {
			t.Fatalf("%v: %v", param, err)
		}
		growth := math.Exp((o.Rate - o.Div) * lp.Dt)
		if got := lp.P*lp.U + (1-lp.P)*lp.D; !almostEqual(got, growth) {
			t.Errorf("%v: E[growth] = %.15g, want %.15g", param, got, growth)
		}
	}
	lp, err := NewLatticeParams(o, 256, JarrowRudd)
	if err != nil {
		t.Fatal(err)
	}
	growth := math.Exp((o.Rate - o.Div) * lp.Dt)
	if got := lp.P*lp.U + (1-lp.P)*lp.D; math.Abs(got-growth) > 1e-8 {
		t.Errorf("jarrow-rudd: E[growth] = %.15g too far from %.15g", got, growth)
	}
}

func TestLeafPriceRecombination(t *testing.T) {
	o := sample()
	lp, err := NewLatticeParams(o, 64, CRR)
	if err != nil {
		t.Fatal(err)
	}
	// Middle leaf of an even tree is back at the spot for CRR.
	if got := lp.LeafPrice(o.Spot, 32); !almostEqual(got, o.Spot) {
		t.Errorf("middle leaf = %v, want spot %v", got, o.Spot)
	}
	// Leaves are strictly increasing in k.
	prev := 0.0
	for k := 0; k <= 64; k++ {
		s := lp.LeafPrice(o.Spot, k)
		if s <= prev {
			t.Fatalf("leaf %d = %v not increasing (prev %v)", k, s, prev)
		}
		prev = s
	}
}

func TestLeafPriceTelescopes(t *testing.T) {
	// LeafPrice must agree with iterated multiplication by u and d.
	o := sample()
	lp, err := NewLatticeParams(o, 16, CRR)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 16; k++ {
		s := o.Spot
		for i := 0; i < k; i++ {
			s *= lp.U
		}
		for i := 0; i < 16-k; i++ {
			s *= lp.D
		}
		if got := lp.LeafPrice(o.Spot, k); math.Abs(got-s) > 1e-9*s {
			t.Errorf("leaf %d: %v vs iterated %v", k, got, s)
		}
	}
}

func TestNodeCount(t *testing.T) {
	lp := LatticeParams{Steps: 1024}
	if got := lp.NodeCount(); got != 1024*1025/2 {
		t.Errorf("NodeCount = %d", got)
	}
	// The paper's example: N=1024 gives roughly 5e5 nodes per option.
	if got := lp.NodeCount(); got < 500000 || got > 550000 {
		t.Errorf("NodeCount = %d, expected ~5e5 (paper §IV-A)", got)
	}
}

func TestLatticeParamsProperty(t *testing.T) {
	// For any reasonable contract, CRR params satisfy d < growth < u and
	// probabilities in (0,1).
	f := func(rawSigma, rawT, rawRate float64) bool {
		o := sample()
		o.Sigma = 0.05 + math.Abs(math.Mod(rawSigma, 0.95))
		o.T = 0.05 + math.Abs(math.Mod(rawT, 3))
		o.Rate = math.Mod(rawRate, 0.10)
		lp, err := NewLatticeParams(o, 128, CRR)
		if err != nil {
			return true // rejected parameter combinations are fine
		}
		growth := math.Exp((o.Rate - o.Div) * lp.Dt)
		return lp.D < growth && growth < lp.U && lp.P > 0 && lp.P < 1 &&
			lp.Pu > 0 && lp.Pd > 0 &&
			math.Abs(lp.Pu+lp.Pd-lp.Disc) <= 1e-15*lp.Disc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
