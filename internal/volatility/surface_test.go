package volatility

import (
	"math"
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/workload"
)

// buildSurfaceQuotes generates chains at several maturities from the
// default smile.
func buildSurfaceQuotes(t *testing.T, perMaturity, steps int, maturities []float64) ([]workload.Quote, *lattice.Engine) {
	t.Helper()
	var all []workload.Quote
	for i, mat := range maturities {
		spec := workload.DefaultVolCurveSpec(int64(100 + i))
		spec.N = perMaturity
		spec.T = mat
		spec.MinMny = 0.85
		spec.MaxMny = 1.10
		opts, err := workload.Chain(spec)
		if err != nil {
			t.Fatal(err)
		}
		quotes, err := workload.ReferenceQuotes(opts, steps, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, quotes...)
	}
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	return all, eng
}

func TestSurfaceRecoversSmileAcrossMaturities(t *testing.T) {
	mats := []float64{0.25, 0.5, 1.0}
	quotes, eng := buildSurfaceQuotes(t, 14, 64, mats)
	surf, skipped, err := BuildSurface(quotes, engineBatch(eng, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	if skipped > len(quotes)/3 {
		t.Errorf("too many skipped quotes: %d of %d", skipped, len(quotes))
	}
	if got := surf.Maturities(); len(got) != 3 || got[0] != 0.25 || got[2] != 1.0 {
		t.Fatalf("maturities: %v", got)
	}
	// On-grid queries recover the generating smile.
	for _, mat := range mats {
		for _, k := range []float64{90, 100, 105} {
			v, err := surf.Vol(k, mat)
			if err != nil {
				t.Fatal(err)
			}
			truth := workload.DefaultSmile(k / 100)
			if math.Abs(v-truth) > 5e-3 {
				t.Errorf("vol(K=%v, T=%v) = %v, smile %v", k, mat, v, truth)
			}
		}
	}
}

func TestSurfaceInterpolatesBetweenMaturities(t *testing.T) {
	quotes, eng := buildSurfaceQuotes(t, 10, 64, []float64{0.25, 1.0})
	surf, _, err := BuildSurface(quotes, engineBatch(eng, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	v25, err := surf.Vol(100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	v100, err := surf.Vol(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := surf.Vol(100, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(v25, v100), math.Max(v25, v100)
	if mid < lo-1e-9 || mid > hi+1e-9 {
		t.Errorf("interpolated vol %v outside [%v, %v]", mid, lo, hi)
	}
}

func TestSurfaceClampsOutsideRange(t *testing.T) {
	quotes, eng := buildSurfaceQuotes(t, 10, 64, []float64{0.5})
	surf, _, err := BuildSurface(quotes, engineBatch(eng, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	inside, err := surf.Vol(100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	early, err := surf.Vol(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	late, err := surf.Vol(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if early != inside || late != inside {
		t.Errorf("single-maturity surface should clamp: %v / %v / %v", early, inside, late)
	}
	// Strike clamping at the wings.
	wingLo, err := surf.Vol(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wingHi, err := surf.Vol(1e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if wingLo <= 0 || wingHi <= 0 {
		t.Error("clamped wings should return the end-of-curve vols")
	}
}

func TestSurfaceQueryValidation(t *testing.T) {
	quotes, eng := buildSurfaceQuotes(t, 8, 48, []float64{0.5})
	surf, _, err := BuildSurface(quotes, engineBatch(eng, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{-1, 0.5}, {100, -1}, {0, 0.5}, {100, 0}, {math.NaN(), 0.5}} {
		if _, err := surf.Vol(q[0], q[1]); err == nil {
			t.Errorf("query %v should fail", q)
		}
	}
}

func TestBuildSurfaceErrors(t *testing.T) {
	_, eng := buildSurfaceQuotes(t, 2, 32, []float64{0.5})
	if _, _, err := BuildSurface(nil, engineBatch(eng, new(int))); err == nil {
		t.Error("empty quotes should fail")
	}
}
