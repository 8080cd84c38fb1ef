package lattice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// quadChain builds four distinct contracts of the given right and style,
// spread across moneyness and vol so the four lanes exercise different
// early-exercise boundaries inside one shared sweep.
func quadChain(right option.Right, style option.Style) []option.Option {
	base := option.Option{
		Right: right, Style: style,
		Spot: 100, Strike: 105, Rate: 0.03, Div: 0.01, Sigma: 0.2, T: 0.5,
	}
	opts := make([]option.Option, 4)
	for i := range opts {
		o := base
		o.Spot = 80 + 15*float64(i)
		o.Strike = 70 + 20*float64(i)
		o.Sigma = 0.15 + 0.08*float64(i)
		o.T = 0.25 + 0.5*float64(i)
		opts[i] = o
	}
	return opts
}

// quadEngine builds the engine variant for one parity case.
func quadEngine(t *testing.T, steps int, single, deviceLeaves bool) *Engine {
	t.Helper()
	e := mustEngine(t, steps)
	if single {
		e = e.WithSinglePrecision()
	}
	if deviceLeaves {
		e = e.WithDeviceLeaves(hwmath.Accurate13SP1)
	}
	return e
}

// TestQuadScalarBitParity is the central invariant of the quad refactor:
// the interleaved sweep reproduces the scalar reference bit for bit
// across rights, styles, depths, precisions and leaf-initialisation
// modes. Under the race detector the two deepest
// trees run a single right/style combination to keep the instrumented
// sweep affordable; the plain CI pass covers the full table.
func TestQuadScalarBitParity(t *testing.T) {
	depths := []int{15, 512, 1024, 2047}
	for _, steps := range depths {
		for _, right := range []option.Right{option.Call, option.Put} {
			for _, style := range []option.Style{option.European, option.American} {
				if raceEnabled && steps >= 1024 && !(right == option.Put && style == option.American) {
					continue
				}
				for _, single := range []bool{false, true} {
					for _, device := range []bool{false, true} {
						name := fmt.Sprintf("n=%d/%v/%v/single=%v/device=%v", steps, right, style, single, device)
						t.Run(name, func(t *testing.T) {
							e := quadEngine(t, steps, single, device)
							opts := quadChain(right, style)

							want := make([]float64, 4)
							for i, o := range opts {
								v, err := e.Price(o)
								if err != nil {
									t.Fatal(err)
								}
								want[i] = v
							}

							qp := e.NewQuadPlan()
							if err := qp.Load(opts); err != nil {
								t.Fatal(err)
							}
							got := qp.Exec()
							for i := range opts {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Errorf("lane %d: %v (%#x) != scalar %v (%#x)",
										i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestQuadRemainderGroups pins the batch pricer's partial quad groups:
// batch sizes 1–5 cover a lone 1–3-lane group, exactly one full quad,
// and a full quad plus a 1-lane tail, in both precisions and both leaf
// modes. Every group runs the quad sweep with its unused lanes
// mirroring lane 0, and each active lane must match the scalar
// reference bit for bit.
func TestQuadRemainderGroups(t *testing.T) {
	for _, single := range []bool{false, true} {
		for _, device := range []bool{false, true} {
			e := quadEngine(t, 257, single, device)
			all := chainOf(5)
			for size := 1; size <= 5; size++ {
				opts := all[:size]
				want := make([]float64, size)
				for i, o := range opts {
					v, err := e.Price(o)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = v
				}
				for _, workers := range []int{1, 3} {
					got, err := e.PriceBatch(opts, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Errorf("single=%v device=%v size=%d workers=%d option %d: %v != %v",
								single, device, size, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestQuadPlanShortLoad pins the lane-mirroring contract: loading fewer
// than four options still executes, active lanes match scalar, and the
// mirrored tail repeats lane 0.
func TestQuadPlanShortLoad(t *testing.T) {
	e := mustEngine(t, 64)
	opts := quadChain(option.Put, option.American)[:2]
	qp := e.NewQuadPlan()
	if err := qp.Load(opts); err != nil {
		t.Fatal(err)
	}
	res := qp.Exec()
	for i, o := range opts {
		want, err := e.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res[i]) != math.Float64bits(want) {
			t.Errorf("lane %d: %v != %v", i, res[i], want)
		}
	}
	if math.Float64bits(res[2]) != math.Float64bits(res[0]) || math.Float64bits(res[3]) != math.Float64bits(res[0]) {
		t.Errorf("mirrored lanes diverge from lane 0: %v", res)
	}
}

// TestQuadPlanLoadRejects pins Load's argument contract and the error
// lane naming.
func TestQuadPlanLoadRejects(t *testing.T) {
	e := mustEngine(t, 16)
	qp := e.NewQuadPlan()
	if err := qp.Load(nil); err == nil {
		t.Error("empty load should fail")
	}
	if err := qp.Load(make([]option.Option, 5)); err == nil {
		t.Error("five-lane load should fail")
	}
	opts := quadChain(option.Put, option.American)
	opts[2].Sigma = -1
	err := qp.Load(opts)
	if err == nil {
		t.Fatal("invalid lane should fail the load")
	}
	if !strings.Contains(err.Error(), "lane 2") {
		t.Errorf("error should name lane 2, got %q", err)
	}
}

// TestPriceBatchStopsAfterError is the early-stop regression: once a
// group fails, the dispatcher must stop handing out indices and the
// workers must drain the rest without pricing doomed work.
func TestPriceBatchStopsAfterError(t *testing.T) {
	e := mustEngine(t, 64)
	opts := chainOf(4096)
	opts[0].Sigma = -1 // first quad group fails immediately

	out, priced, err := e.priceBatch(opts, 1)
	if err == nil {
		t.Fatal("batch with an invalid option should fail")
	}
	if out != nil {
		t.Errorf("failed batch should return nil results")
	}
	if !strings.Contains(err.Error(), "option 0") {
		t.Errorf("error should name option 0, got %q", err)
	}
	if priced != 1 {
		t.Errorf("single worker priced %d groups after the failure; early-stop should cap it at 1", priced)
	}

	// Multi-worker: a few in-flight groups may complete, but the 1024
	// groups must not all be priced.
	_, priced, err = e.priceBatch(opts, 4)
	if err == nil {
		t.Fatal("batch with an invalid option should fail")
	}
	if priced > 64 {
		t.Errorf("4 workers priced %d of 1024 groups after an immediate failure; dispatch did not stop", priced)
	}
}
