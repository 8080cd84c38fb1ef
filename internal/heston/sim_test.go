package heston

import (
	"math"
	"testing"
)

// vanillaMC is the European call on the barrier simulator: a down
// barrier at the smallest positive float sits below every path's log
// spot, so no path knocks out and the shared full-truncation Euler
// scheme is checked against the semi-analytic price on its own.
func vanillaMC(p Params, k, t float64, cfg SimConfig) (Estimate, error) {
	return DownAndOutCallMC(p, k, math.SmallestNonzeroFloat64, t, cfg)
}

func TestEulerConvergesToClosedForm(t *testing.T) {
	p := testParams()
	const k, T = 100.0, 0.5
	ref, err := EuropeanCall(p, k, T)
	if err != nil {
		t.Fatal(err)
	}
	est, err := vanillaMC(p, k, T, SimConfig{Paths: 120000, Steps: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Allow statistical error plus the O(dt) Euler bias.
	if diff := math.Abs(est.Price - ref); diff > 4*est.StdErr+0.05 {
		t.Errorf("MC %v vs closed form %v (diff %g, 4σ %g)", est.Price, ref, diff, 4*est.StdErr)
	}
}

func TestEulerBiasShrinksWithSteps(t *testing.T) {
	p := testParams()
	const k, T = 100.0, 0.5
	ref, err := EuropeanCall(p, k, T)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := vanillaMC(p, k, T, SimConfig{Paths: 200000, Steps: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := vanillaMC(p, k, T, SimConfig{Paths: 200000, Steps: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fine.Price-ref) > math.Abs(coarse.Price-ref) {
		t.Errorf("refinement did not reduce bias: 2 steps err %g, 64 steps err %g",
			math.Abs(coarse.Price-ref), math.Abs(fine.Price-ref))
	}
}

func TestBarrierBelowEverythingEqualsVanilla(t *testing.T) {
	// A barrier so deep it can never be touched leaves the vanilla call.
	p := testParams()
	const k, T = 100.0, 0.5
	seed := uint64(11)
	vanilla, err := vanillaMC(p, k, T, SimConfig{Paths: 50000, Steps: 32, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := DownAndOutCallMC(p, k, 1e-6, T, SimConfig{Paths: 50000, Steps: 32, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if barrier.Price != vanilla.Price {
		t.Errorf("unreachable barrier: %v vs vanilla %v (same seed, must match exactly)",
			barrier.Price, vanilla.Price)
	}
}

func TestBarrierMonotoneInLevel(t *testing.T) {
	// Raising the knock-out barrier can only destroy value.
	p := testParams()
	const k, T = 100.0, 0.5
	prev := math.Inf(1)
	for _, b := range []float64{50, 70, 85, 95, 99} {
		est, err := DownAndOutCallMC(p, k, b, T, SimConfig{Paths: 60000, Steps: 32, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if est.Price > prev+2*est.StdErr {
			t.Errorf("barrier %v: price %v rose above previous %v", b, est.Price, prev)
		}
		prev = est.Price
	}
}

func TestBarrierNearSpotNearlyWorthless(t *testing.T) {
	p := testParams()
	est, err := DownAndOutCallMC(p, 100, 99.5, 0.5, SimConfig{Paths: 30000, Steps: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := EuropeanCall(p, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Discrete monitoring at 64 dates shifts the effective barrier down
	// by ~0.58*sigma*sqrt(dt) (Broadie-Glasserman-Kou), so some value
	// survives; the bulk must still be destroyed.
	if est.Price > 0.35*vanilla {
		t.Errorf("barrier at 99.5%% of spot should destroy most value: %v vs vanilla %v", est.Price, vanilla)
	}
}

func TestSimValidation(t *testing.T) {
	p := testParams()
	if _, err := vanillaMC(p, 100, 0.5, SimConfig{Paths: 1, Steps: 8}); err == nil {
		t.Error("1 path should fail")
	}
	if _, err := vanillaMC(p, 100, 0.5, SimConfig{Paths: 100, Steps: 0}); err == nil {
		t.Error("0 steps should fail")
	}
	if _, err := DownAndOutCallMC(p, 100, 120, 0.5, SimConfig{Paths: 100, Steps: 8}); err == nil {
		t.Error("barrier above spot should fail")
	}
	if _, err := DownAndOutCallMC(p, 100, -5, 0.5, SimConfig{Paths: 100, Steps: 8}); err == nil {
		t.Error("negative barrier should fail")
	}
}

func TestVarianceProcessStaysReasonable(t *testing.T) {
	// Full truncation must not blow up even when Feller is violated.
	p := testParams()
	p.Xi = 1.2 // violates Feller
	est, err := vanillaMC(p, 100, 1, SimConfig{Paths: 20000, Steps: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(est.Price) || est.Price < 0 || est.Price > p.Spot {
		t.Errorf("price %v out of sane range under Feller violation", est.Price)
	}
}
