package volatility

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"binopt/internal/bs"
	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/workload"
)

// buildQuotes generates a small chain and its binomial reference prices.
func buildQuotes(t *testing.T, n, steps int) ([]workload.Quote, *lattice.Engine) {
	t.Helper()
	spec := workload.DefaultVolCurveSpec(99)
	spec.N = n
	opts, err := workload.Chain(spec)
	if err != nil {
		t.Fatal(err)
	}
	quotes, err := workload.ReferenceQuotes(opts, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	return quotes, eng
}

// batchOf prices a batch one contract at a time, counting every pricing
// into *n.
func batchOf(pf PriceFunc, n *int) func([]option.Option) ([]float64, error) {
	return func(opts []option.Option) ([]float64, error) {
		*n += len(opts)
		out := make([]float64, len(opts))
		for i, o := range opts {
			v, err := pf(o)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// engineBatch is eng's quad batch pricer on all cores, counting every
// pricing into *n.
func engineBatch(eng *lattice.Engine, n *int) func([]option.Option) ([]float64, error) {
	return func(opts []option.Option) ([]float64, error) {
		*n += len(opts)
		return eng.PriceBatch(opts, 0)
	}
}

// scalarRun is what per-quote Brent makes of each quote of a chain: its
// implied volatility or error, and the pricings it spent.
type scalarRun struct {
	quotes   []workload.Quote
	iv       []float64
	errs     []error
	pricings []int
}

func scalarBrent(quotes []workload.Quote, pf PriceFunc) scalarRun {
	r := scalarRun{
		quotes:   quotes,
		iv:       make([]float64, len(quotes)),
		errs:     make([]error, len(quotes)),
		pricings: make([]int, len(quotes)),
	}
	for i, q := range quotes {
		r.iv[i], r.errs[i] = Brent(q.Price, q.Option, func(o option.Option) (float64, error) {
			r.pricings[i]++
			return pf(o)
		})
	}
	return r
}

// curve assembles the points, skipped count and pricing total of the
// quotes with index in keep (nil keeps all).
func (r scalarRun) curve(keep []int) (pts []CurvePoint, skipped, pricings int) {
	if keep == nil {
		for i := range r.quotes {
			keep = append(keep, i)
		}
	}
	for _, i := range keep {
		pricings += r.pricings[i]
		switch o := r.quotes[i].Option; {
		case errors.Is(r.errs[i], ErrNoVolInfo):
			skipped++
		case r.errs[i] == nil:
			pts = append(pts, CurvePoint{Strike: o.Strike, Mny: o.Strike / o.Spot, Implied: r.iv[i]})
		}
	}
	return pts, skipped, pricings
}

// samePoints reports whether two curves hold bit-identical points,
// ignoring the order among equal strikes.
func samePoints(a, b []CurvePoint) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d points vs %d", len(a), len(b))
	}
	key := func(p CurvePoint) [3]uint64 {
		return [3]uint64{math.Float64bits(p.Strike), math.Float64bits(p.Mny), math.Float64bits(p.Implied)}
	}
	order := func(pts []CurvePoint) [][3]uint64 {
		ks := make([][3]uint64, len(pts))
		for i, p := range pts {
			ks[i] = key(p)
		}
		sort.Slice(ks, func(i, j int) bool {
			return ks[i][0] < ks[j][0] || ks[i][0] == ks[j][0] && ks[i][2] < ks[j][2]
		})
		return ks
	}
	ka, kb := order(a), order(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("point %d: %v vs %v", i, ka[i], kb[i])
		}
	}
	return nil
}

func TestCurveRecoversSmile(t *testing.T) {
	// End-to-end use case (experiment E2 at test scale): generate quotes
	// from a known smile, invert them, and compare curve to truth. Deep
	// in-the-money puts pinned at intrinsic carry no volatility
	// information and are skipped, as on a real desk.
	quotes, eng := buildQuotes(t, 40, 96)
	pts, skipped, err := Curve(quotes, engineBatch(eng, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts)+skipped != 40 {
		t.Fatalf("points %d + skipped %d != 40", len(pts), skipped)
	}
	if len(pts) < 25 {
		t.Fatalf("too few informative quotes: %d", len(pts))
	}
	var worst float64
	for _, p := range pts {
		truth := workload.DefaultSmile(p.Mny)
		if e := math.Abs(p.Implied - truth); e > worst {
			worst = e
		}
	}
	if worst > 5e-4 {
		t.Errorf("worst smile recovery error %g, want < 5e-4", worst)
	}
	// Sorted by strike.
	for i := 1; i < len(pts); i++ {
		if pts[i].Strike < pts[i-1].Strike {
			t.Fatal("curve not sorted by strike")
		}
	}
}

func TestCurveMatchesScalarBrent(t *testing.T) {
	// The lock-step curve is per-quote Brent, batched: on the paper's
	// 2000-put chain it must give bit-identical points, the same skipped
	// count and exactly the same number of pricings, in both precisions.
	opts, err := workload.Chain(workload.DefaultVolCurveSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 64
	quotes, err := workload.ReferenceQuotes(opts, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]*lattice.Engine{"double": dbl, "single": dbl.WithSinglePrecision()} {
		t.Run(name, func(t *testing.T) {
			// Single-precision floors sit a rounding error off the
			// double-precision quotes, so a few quotes fall below them:
			// keep exactly the quotes per-quote Brent can answer.
			run := scalarBrent(quotes, eng.Price)
			var keep []int
			var ok []workload.Quote
			for i, err := range run.errs {
				if err == nil || errors.Is(err, ErrNoVolInfo) {
					keep = append(keep, i)
					ok = append(ok, quotes[i])
				}
			}
			if name == "double" && len(ok) != len(quotes) {
				t.Fatalf("%d of %d double-precision quotes fail per-quote Brent", len(quotes)-len(ok), len(quotes))
			}
			if len(ok) < len(quotes)/2 {
				t.Fatalf("only %d of %d quotes invert per quote", len(ok), len(quotes))
			}
			wantPts, wantSkipped, wantPricings := run.curve(keep)
			var n int
			pts, skipped, err := Curve(ok, engineBatch(eng, &n))
			if err != nil {
				t.Fatal(err)
			}
			if err := samePoints(pts, wantPts); err != nil {
				t.Errorf("curve differs from per-quote Brent: %v", err)
			}
			if skipped != wantSkipped || n != wantPricings {
				t.Errorf("skipped %d, pricings %d; per-quote Brent skipped %d in %d pricings",
					skipped, n, wantSkipped, wantPricings)
			}
		})
	}
}

func TestCurveEmptyQuotes(t *testing.T) {
	_, eng := buildQuotes(t, 1, 16)
	if _, _, err := Curve(nil, engineBatch(eng, new(int))); err == nil {
		t.Error("empty quotes should fail")
	}
}

func TestCurvePropagatesSolverErrors(t *testing.T) {
	quotes, eng := buildQuotes(t, 5, 32)
	quotes[3].Price = -1
	_, _, err := Curve(quotes, engineBatch(eng, new(int)))
	if err == nil || !strings.Contains(err.Error(), "quote 3 ") {
		t.Errorf("err = %v, want the bad quote 3 named", err)
	}
}

func TestCurveNamesLowestFailingQuote(t *testing.T) {
	// Quote 1 must be named whether it fails a round after quote 4 (its
	// below-floor price shows only once the floor is priced, while
	// quote 4's negative price fails before any pricing) or before it.
	quotes, eng := buildQuotes(t, 6, 32)
	// Move the deepest in-the-money put, whose floor is well above
	// zero, to index 1.
	quotes[1], quotes[5] = quotes[5], quotes[1]
	below := quotes[1]
	below.Option.Sigma = VolMin
	floor, err := eng.Price(below.Option)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]workload.Quote){
		"lower fails later": func(q []workload.Quote) { q[1].Price = floor / 2; q[4].Price = -1 },
		"lower fails first": func(q []workload.Quote) { q[1].Price = -1; q[4].Price /= 1e6 },
	}
	for name, spoil := range cases {
		q := append([]workload.Quote(nil), quotes...)
		spoil(q)
		_, want := Brent(q[1].Price, q[1].Option, eng.Price)
		for run := 0; run < 10; run++ {
			_, _, err := Curve(q, engineBatch(eng, new(int)))
			if err == nil || !strings.HasPrefix(err.Error(), "volatility: quote 1 ") || !strings.HasSuffix(err.Error(), want.Error()) {
				t.Fatalf("%s, run %d: err = %v, want quote 1's %q", name, run, err, want)
			}
		}
	}
}

func TestCurvePriceBatchErrorFailsCurve(t *testing.T) {
	quotes, eng := buildQuotes(t, 8, 32)
	boom := errors.New("device lost")
	rounds := 0
	_, _, err := Curve(quotes, func(opts []option.Option) ([]float64, error) {
		if rounds++; rounds == 3 {
			return nil, boom
		}
		return eng.PriceBatch(opts, 0)
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the batch pricer's error", err)
	}
}

func TestPinnedQuoteReturnsNoVolInfo(t *testing.T) {
	// A deep ITM American put pinned at intrinsic must be classified as
	// carrying no volatility information.
	eng, err := lattice.NewEngine(64)
	if err != nil {
		t.Fatal(err)
	}
	o := quotes130()
	price, err := eng.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	// The lattice lands within rounding of intrinsic (40.00000000000004
	// against 40 at 64 steps), not on it.
	if math.Abs(price-o.Intrinsic()) > DefaultTol {
		t.Skipf("contract not pinned at intrinsic (%v vs %v)", price, o.Intrinsic())
	}
	if _, err := Brent(price, o, eng.Price); !errors.Is(err, ErrNoVolInfo) {
		t.Errorf("err = %v, want ErrNoVolInfo", err)
	}
}

func quotes130() option.Option {
	return option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: 140, Rate: 0.05, Sigma: 0.10, T: 0.5,
	}
}

// FuzzCurve holds Curve to per-quote Brent on 1-8 fuzzed European
// quotes priced in closed form: bit-identical points, the same skipped
// count and pricing total, and, when some quote has no volatility, the
// error of the lowest-index such quote. Each quote reads six bytes:
// right, strike, expiry, rate, true sigma and a price perturbation.
func FuzzCurve(f *testing.F) {
	f.Add([]byte{0, 128, 128, 128, 60, 0})
	f.Add([]byte{1, 20, 200, 30, 90, 0, 0, 250, 10, 200, 40, 0})
	f.Add([]byte{0, 250, 5, 255, 10, 0, 1, 10, 5, 0, 10, 0, 0, 128, 60, 128, 250, 3})
	f.Add([]byte{0, 128, 128, 128, 60, 1, 0, 200, 3, 128, 20, 2, 1, 60, 128, 128, 128, 255, 0, 90, 90, 90, 90, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/6, 8)
		if n == 0 {
			return
		}
		quotes := make([]workload.Quote, n)
		for i := range quotes {
			b := data[6*i : 6*i+6]
			o := option.Option{
				Right:  option.Put,
				Style:  option.European,
				Spot:   100,
				Strike: 30 + 170*float64(b[1])/255,
				T:      0.01 + 2*float64(b[2])/255,
				Rate:   -0.02 + 0.12*float64(b[3])/255,
				Sigma:  0.01 + 1.5*float64(b[4])/255,
			}
			if b[0]&1 == 1 {
				o.Right = option.Call
			}
			price, err := bs.Price(o)
			if err != nil {
				t.Skip(err)
			}
			switch p := b[5]; {
			case p == 255:
				price = -price
			case p%4 == 0:
				// the exact closed-form price
			default:
				price *= 1 + (float64(p)-128)/256
			}
			quotes[i] = workload.Quote{Option: o, Price: price}
		}
		run := scalarBrent(quotes, bs.Price)
		var pricings int
		pts, skipped, err := Curve(quotes, batchOf(bs.Price, &pricings))
		for i, e := range run.errs {
			if e != nil && !errors.Is(e, ErrNoVolInfo) {
				wantErr := fmt.Sprintf("volatility: quote %d (K=%v): %v", i, quotes[i].Option.Strike, e)
				if err == nil || err.Error() != wantErr || pts != nil {
					t.Fatalf("err = %v, want %s", err, wantErr)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("per-quote Brent inverts every quote, Curve fails: %v", err)
		}
		wantPts, wantSkipped, wantPricings := run.curve(nil)
		if err := samePoints(pts, wantPts); err != nil {
			t.Errorf("curve differs from per-quote Brent: %v", err)
		}
		if skipped != wantSkipped || pricings != wantPricings {
			t.Errorf("skipped %d, pricings %d; per-quote Brent skipped %d in %d pricings",
				skipped, pricings, wantSkipped, wantPricings)
		}
	})
}
