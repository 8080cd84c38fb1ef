package lattice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// mixedBook builds a deterministic chain spanning rights × styles with
// varied strikes and vols, the shape book revaluation sees.
func mixedBook(n int) []option.Option {
	opts := make([]option.Option, n)
	for i := range opts {
		o := amPut()
		o.Strike = 85 + float64(i%40)
		o.Sigma = 0.12 + 0.002*float64(i%80)
		o.T = 0.25 + 0.05*float64(i%8)
		if i%2 == 1 {
			o.Right = option.Call
		}
		if i%3 == 2 {
			o.Style = option.European
		}
		opts[i] = o
	}
	return opts
}

// TestPriceAndGreeksBatchParity pins the batch path bit-identical to the
// per-option scalar PriceAndGreeks reference across rights, styles,
// parameterisations (exercising both theta branches and both lane
// counts) and precisions. Book sizes 1–9 put a 5-lane (CRR) or 6-lane
// position at every offset within a quad group, so each way a
// position's lanes can straddle a group boundary — base in one group,
// its bumps in the next — is covered, on 1, 2 and 4 workers. The full
// 37-contract book then runs once per engine and worker count, so
// strikes 85–121 (in-the-money American puts, out-of-the-money calls)
// and the whole σ and T range are pinned in every engine too.
func TestPriceAndGreeksBatchParity(t *testing.T) {
	all := mixedBook(37)
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, len(all)}
	engines := map[string]*Engine{
		"crr-double":   mustEngine(t, 96),
		"crr-single":   mustEngine(t, 96).WithSinglePrecision(),
		"jr-double":    mustEngine(t, 96).WithParameterisation(option.JarrowRudd),
		"jr-single":    mustEngine(t, 96).WithParameterisation(option.JarrowRudd).WithSinglePrecision(),
		"tian-double":  mustEngine(t, 64).WithParameterisation(option.Tian),
		"lr-double":    mustEngine(t, 65).WithParameterisation(option.LeisenReimer),
		"crr-devleaf":  mustEngine(t, 64).WithDeviceLeaves(defaultPow(t)),
		"crr-double33": mustEngine(t, 33),
		"crr-double2":  mustEngine(t, 2),
	}
	for name, e := range engines {
		refP := make([]float64, len(all))
		refG := make([]Greeks, len(all))
		for i, o := range all {
			var err error
			if refP[i], refG[i], err = e.PriceAndGreeks(o); err != nil {
				t.Fatalf("%s reference %d: %v", name, i, err)
			}
		}
		for _, size := range sizes {
			for _, workers := range []int{1, 2, 4} {
				prices, greeks, err := e.PriceAndGreeksBatch(all[:size], workers)
				if err != nil {
					t.Fatalf("%s size=%d workers=%d: %v", name, size, workers, err)
				}
				for i := 0; i < size; i++ {
					if math.Float64bits(prices[i]) != math.Float64bits(refP[i]) {
						t.Fatalf("%s size=%d workers=%d option %d price: %v != %v", name, size, workers, i, prices[i], refP[i])
					}
					if !sameGreeksBits(greeks[i], refG[i]) {
						t.Fatalf("%s size=%d workers=%d option %d greeks: %+v != %+v", name, size, workers, i, greeks[i], refG[i])
					}
				}
			}
		}
	}
}

// sameGreeksBits compares two Greeks bit for bit, so a NaN or a signed
// zero cannot hide a divergence.
func sameGreeksBits(a, b Greeks) bool {
	return math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		math.Float64bits(a.Gamma) == math.Float64bits(b.Gamma) &&
		math.Float64bits(a.Theta) == math.Float64bits(b.Theta) &&
		math.Float64bits(a.Vega) == math.Float64bits(b.Vega) &&
		math.Float64bits(a.Rho) == math.Float64bits(b.Rho)
}

// TestGreeksLanes pins the lane count every caller books: five per
// position under CRR, six where theta needs its own re-sweep.
func TestGreeksLanes(t *testing.T) {
	for _, c := range []struct {
		e    *Engine
		want int
	}{
		{mustEngine(t, 16), 5 * 7},
		{mustEngine(t, 16).WithParameterisation(option.JarrowRudd), 6 * 7},
		{mustEngine(t, 16).WithParameterisation(option.Tian), 6 * 7},
		{mustEngine(t, 17).WithParameterisation(option.LeisenReimer), 6 * 7},
	} {
		if got := c.e.GreeksLanes(7); got != c.want {
			t.Errorf("%v: GreeksLanes(7) = %d, want %d", c.e.param, got, c.want)
		}
	}
}

func defaultPow(t *testing.T) hwmath.PowCore {
	t.Helper()
	return mustEngine(t, 2).pow
}

func TestPriceAndGreeksBatchEmpty(t *testing.T) {
	e := mustEngine(t, 16)
	prices, greeks, err := e.PriceAndGreeksBatch(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) != 0 || len(greeks) != 0 {
		t.Errorf("got %d prices, %d greeks", len(prices), len(greeks))
	}
}

func TestPriceAndGreeksBatchNeedsTwoSteps(t *testing.T) {
	e := mustEngine(t, 1)
	if _, _, err := e.PriceAndGreeksBatch(mixedBook(2), 1); err == nil {
		t.Error("1-step engine should refuse greeks")
	}
}

// TestPriceAndGreeksBatchErrorIdentity pins that the error names the
// failing contract itself, not just its index.
func TestPriceAndGreeksBatchErrorIdentity(t *testing.T) {
	e := mustEngine(t, 16)
	opts := mixedBook(9)
	opts[5].Sigma = -0.5
	_, _, err := e.PriceAndGreeksBatch(opts, 2)
	if err == nil {
		t.Fatal("invalid option should surface an error")
	}
	if !strings.Contains(err.Error(), "option 5") {
		t.Errorf("error should name the index: %v", err)
	}
	if !strings.Contains(err.Error(), opts[5].String()) {
		t.Errorf("error should carry the contract identity %q: %v", opts[5].String(), err)
	}
}

// TestPriceAndGreeksBatchBumpLaneError pins that a failing bump lane —
// σ ≤ h, so the vega-down contract σ−h is invalid while the base prices
// fine — surfaces under the position's index and contract and names the
// lane's role, never a raw lane number, wherever the position's lanes
// fall in the packed groups.
func TestPriceAndGreeksBatchBumpLaneError(t *testing.T) {
	for _, e := range []*Engine{mustEngine(t, 16), mustEngine(t, 16).WithParameterisation(option.JarrowRudd)} {
		for _, pos := range []int{0, 3, 6} {
			opts := mixedBook(7)
			opts[pos].Sigma = hSigma / 2
			opts[pos].Rate = 0
			if _, _, err := e.PriceAndGreeks(opts[pos]); err == nil || !strings.Contains(err.Error(), "vega-down") {
				t.Fatalf("%v position %d: scalar reference should fail on the vega-down bump: %v", e.param, pos, err)
			}
			for _, workers := range []int{1, 3} {
				_, _, err := e.PriceAndGreeksBatch(opts, workers)
				if err == nil {
					t.Fatalf("%v position %d workers=%d: invalid bump lane should surface an error", e.param, pos, workers)
				}
				msg := err.Error()
				for _, want := range []string{fmt.Sprintf("option %d ", pos), opts[pos].String(), "vega-down bump lane", "volatility"} {
					if !strings.Contains(msg, want) {
						t.Errorf("%v position %d workers=%d: error should contain %q: %v", e.param, pos, workers, want, msg)
					}
				}
			}
		}
	}
}

// TestPriceAndGreeksBatchStopsDispatch pins the early-stop regression:
// once a lane fails, the dispatcher stops handing out quad groups and
// the workers drain the rest without pricing them. The failing lane is
// a bump of position 0, so the failure happens inside the first group's
// sweep setup rather than in the up-front expansion.
func TestPriceAndGreeksBatchStopsDispatch(t *testing.T) {
	e := mustEngine(t, 256)
	opts := mixedBook(64)
	opts[0].Sigma = hSigma / 2 // base valid, σ−h bump lane invalid
	opts[0].Rate = 0
	groups := int64((e.GreeksLanes(len(opts)) + 3) / 4)
	_, _, priced, err := e.priceAndGreeksBatch(opts, 1)
	if err == nil {
		t.Fatal("expected an error")
	}
	if priced < 1 {
		t.Fatalf("the failing group was never dispatched: priced %d", priced)
	}
	if priced >= groups {
		t.Errorf("dispatcher kept feeding a doomed batch: priced %d of %d groups", priced, groups)
	}
}
