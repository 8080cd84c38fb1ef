package hwmath

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccurateCoreMatchesMathPow(t *testing.T) {
	bases := []float64{1.0062, 0.9938, 1.5, 2.0, 100.0}
	for _, b := range bases {
		for k := -1024; k <= 1024; k += 37 {
			got := Accurate13SP1.Pow(b, float64(k))
			want := math.Pow(b, float64(k))
			rel := math.Abs(got-want) / math.Abs(want)
			// The exp2(y*log2 x) datapath amplifies the one rounding of
			// y*log2(x) by |w|, so ~1e-13 is the double-precision floor
			// at |w| ~ 500.
			if rel > 1e-12 {
				t.Fatalf("accurate core: pow(%v,%d) rel err %g", b, k, rel)
			}
		}
	}
}

func TestFlawedCoreErrorMagnitude(t *testing.T) {
	// The up-factor of a 1024-step CRR tree at sigma=0.2, T=0.5.
	u := math.Exp(0.2 * math.Sqrt(0.5/1024))
	worst := Flawed13.WorstRelError(u, 1024)
	// Calibration target: leaf relative error in the 1e-6..1e-4 band,
	// which propagates to ~1e-3 absolute price RMSE at S~100 (experiment
	// E4 checks the end-to-end figure).
	if worst < 1e-6 || worst > 1e-4 {
		t.Errorf("flawed core worst leaf rel error = %g, want within [1e-6, 1e-4]", worst)
	}
	// The accurate core must be at least two orders of magnitude better.
	accWorst := Accurate13SP1.WorstRelError(u, 1024)
	if accWorst*100 > worst {
		t.Errorf("accurate core (%g) not clearly better than flawed (%g)", accWorst, worst)
	}
}

func TestFlawedCoreErrorGrowsWithExponent(t *testing.T) {
	u := 1.00625
	small := Flawed13.WorstRelError(u, 16)
	large := Flawed13.WorstRelError(u, 1024)
	if large < small {
		t.Errorf("error should grow with |y|: n=16 gives %g, n=1024 gives %g", small, large)
	}
}

func TestPowSpecialCases(t *testing.T) {
	if got := Flawed13.Pow(2, 0); got != 1 {
		t.Errorf("x^0 = %v, want 1", got)
	}
	if got := Flawed13.Pow(0, 2); got != 0 {
		t.Errorf("0^2 = %v, want 0 (IEEE fallback)", got)
	}
	if got := Flawed13.Pow(-2, 2); got != 4 {
		t.Errorf("(-2)^2 = %v, want 4 (IEEE fallback)", got)
	}
	if got := Flawed13.Pow(math.NaN(), 2); !math.IsNaN(got) {
		t.Errorf("NaN^2 = %v", got)
	}
	if got := Flawed13.Pow(math.Inf(1), 2); !math.IsInf(got, 1) {
		t.Errorf("Inf^2 = %v", got)
	}
}

func TestPowExactPowersOfTwo(t *testing.T) {
	// log2 of a power of two is exact in any precision >= needed bits, so
	// even the flawed core is exact there.
	for k := -10; k <= 10; k++ {
		got := Flawed13.Pow(2, float64(k))
		want := math.Ldexp(1, k)
		if got != want {
			t.Errorf("2^%d = %v, want %v", k, got, want)
		}
	}
}

func TestPowMonotoneInExponent(t *testing.T) {
	// For base > 1 the emulated core must remain monotone over integer
	// exponents (a non-monotone pow would corrupt the tree ordering).
	u := 1.0101
	prev := Flawed13.Pow(u, -512)
	for k := -511; k <= 512; k++ {
		cur := Flawed13.Pow(u, float64(k))
		if cur <= prev {
			t.Fatalf("pow not monotone at k=%d: %v <= %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestRelErrorProperty(t *testing.T) {
	f := func(rawB, rawY float64) bool {
		b := 0.5 + math.Abs(math.Mod(rawB, 2))
		y := math.Mod(rawY, 1024)
		return Flawed13.RelError(b, y) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowCoreString(t *testing.T) {
	s := Flawed13.String()
	if !strings.Contains(s, "altera-13.0-pow") || !strings.Contains(s, "log=16b") {
		t.Errorf("String() = %q", s)
	}
}
