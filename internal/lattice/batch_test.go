package lattice

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"binopt/internal/option"
)

func chainOf(n int) []option.Option {
	opts := make([]option.Option, n)
	for i := range opts {
		o := amPut()
		o.Strike = 80 + float64(i%50)
		o.Sigma = 0.15 + 0.001*float64(i%100)
		opts[i] = o
	}
	return opts
}

func TestPriceBatchMatchesSequential(t *testing.T) {
	e := mustEngine(t, 64)
	opts := chainOf(101)

	seq := make([]float64, len(opts))
	for i, o := range opts {
		v, err := e.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = v
	}
	for _, workers := range []int{1, 4, 16} {
		par, err := e.PriceBatch(opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d option %d: %v != %v", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestPriceBatchEmpty(t *testing.T) {
	e := mustEngine(t, 16)
	out, err := e.PriceBatch(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("got %d results", len(out))
	}
}

func TestPriceBatchPropagatesError(t *testing.T) {
	e := mustEngine(t, 16)
	opts := chainOf(10)
	opts[7].Sigma = -1
	if _, err := e.PriceBatch(opts, 4); err == nil {
		t.Error("invalid option in batch should surface an error")
	}
}

func TestPriceBatchMoreWorkersThanWork(t *testing.T) {
	e := mustEngine(t, 16)
	out, err := e.PriceBatch(chainOf(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("got %d results", len(out))
	}
}

// TestPriceBatchProperties runs the pricing invariants through the quad
// batch path. Each case draws a batch of 1–9 contracts — all puts, all
// calls, or a random mix of rights — with random styles, so partial and
// mirrored quads run with the zero-wedge bound on and off. It prices the
// batch and three bumped copies of it (spot ×1.05, sigma +0.05, strike
// ×1.05) through PriceBatch; every result must equal Engine.Price bit
// for bit, every American value must be at least intrinsic, puts must
// fall and calls rise in spot, values rise in vol, and puts rise and
// calls fall in strike. The single-precision engine gets a tolerance of
// float32 size on the inequalities.
func TestPriceBatchProperties(t *testing.T) {
	engines := []*Engine{mustEngine(t, 96), mustEngine(t, 96).WithSinglePrecision()}
	tols := []float64{1e-9, 1e-3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pick := rng.Intn(len(engines))
		e, tol := engines[pick], tols[pick]
		mix := rng.Intn(3) // all puts, all calls, mixed rights
		base := make([]option.Option, 1+rng.Intn(9))
		for i := range base {
			o := amPut()
			o.Spot = 50 + 100*rng.Float64()
			o.Sigma = 0.1 + 0.5*rng.Float64()
			if mix == 1 || mix == 2 && rng.Intn(2) == 0 {
				o.Right = option.Call
			}
			if rng.Intn(2) == 0 {
				o.Style = option.European
			}
			base[i] = o
		}
		price := func(move func(*option.Option)) []float64 {
			opts := append([]option.Option(nil), base...)
			for i := range opts {
				move(&opts[i])
			}
			got, err := e.PriceBatch(opts, 1+rng.Intn(3))
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return nil
			}
			for i, o := range opts {
				want, err := e.Price(o)
				if err != nil || math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("seed %d: %v: batch %v != Price %v (%v)", seed, o, got[i], want, err)
					return nil
				}
			}
			return got
		}
		v := price(func(*option.Option) {})
		spot := price(func(o *option.Option) { o.Spot *= 1.05 })
		vol := price(func(o *option.Option) { o.Sigma += 0.05 })
		strike := price(func(o *option.Option) { o.Strike *= 1.05 })
		if v == nil || spot == nil || vol == nil || strike == nil {
			return false
		}
		for i, o := range base {
			sign := 1.0 // +1 where the value rises with the bumped input
			if o.Right == option.Put {
				sign = -1
			}
			switch {
			case o.Style == option.American && v[i] < o.Intrinsic()-tol,
				sign*(spot[i]-v[i]) < -tol,
				vol[i] < v[i]-tol,
				-sign*(strike[i]-v[i]) < -tol:
				t.Errorf("seed %d: %v: value %v, spot-up %v, vol-up %v, strike-up %v", seed, o, v[i], spot[i], vol[i], strike[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
