package scenario

import (
	"math"
	"strings"
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/option"
)

// testBook spans rights × styles with signed quantities, the mix the
// bit-parity sweep must cover.
func testBook(n int) []Position {
	book := make([]Position, n)
	for i := range book {
		o := option.Option{
			Right:  option.Put,
			Style:  option.American,
			Spot:   100,
			Strike: 85 + float64(i%40),
			Rate:   0.03,
			Sigma:  0.12 + 0.002*float64(i%80),
			T:      0.25 + 0.05*float64(i%8),
		}
		if i%2 == 1 {
			o.Right = option.Call
		}
		if i%3 == 2 {
			o.Style = option.European
		}
		q := float64(i%7 + 1)
		if i%5 == 0 {
			q = -q
		}
		book[i] = Position{Option: o, Quantity: q}
	}
	return book
}

func mustEngine(t *testing.T, steps int) *lattice.Engine {
	t.Helper()
	e, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// shockKinds covers the three shock families: pure multiplicative spot
// bumps, pure vol bumps, pure parallel rate shifts, and a mixed grid.
func shockKinds(t *testing.T) map[string][]Shock {
	t.Helper()
	kinds := map[string]GridSpec{
		"spot-bumps":  {Spot: Axis{From: 0.7, To: 1.3, N: 7}},
		"vol-bumps":   {Vol: Axis{From: 0.8, To: 1.4, N: 5}},
		"rate-shifts": {Rate: Axis{From: -0.02, To: 0.02, N: 5}},
		"mixed-grid":  {Spot: Axis{From: 0.9, To: 1.1, N: 3}, Vol: Axis{From: 0.9, To: 1.1, N: 3}, Rate: Axis{From: -0.01, To: 0.01, N: 3}},
	}
	out := make(map[string][]Shock, len(kinds))
	for name, g := range kinds {
		shocks, err := g.Shocks()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = shocks
	}
	return out
}

func TestGridExpansion(t *testing.T) {
	g := GridSpec{
		Spot: Axis{From: 0.8, To: 1.2, N: 5},
		Vol:  Axis{From: 0.9, To: 1.1, N: 3},
		Rate: Axis{From: -0.01, To: 0.01, N: 2},
	}
	shocks, err := g.Shocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(shocks) != 5*3*2 {
		t.Fatalf("got %d shocks, want 30", len(shocks))
	}
	// Deterministic order: rate fastest, spot slowest.
	if shocks[0].SpotMul != 0.8 || shocks[0].RateAdd != -0.01 {
		t.Errorf("first shock %+v", shocks[0])
	}
	if shocks[1].RateAdd != 0.01 || shocks[1].SpotMul != 0.8 {
		t.Errorf("second shock %+v", shocks[1])
	}
	last := shocks[len(shocks)-1]
	if last.SpotMul != 1.2 || last.VolMul != 1.1 || last.RateAdd != 0.01 {
		t.Errorf("last shock %+v", last)
	}
	for _, s := range shocks {
		if s.Label == "" {
			t.Fatalf("generated shock missing label: %+v", s)
		}
	}
}

func TestGridValidation(t *testing.T) {
	cases := map[string]GridSpec{
		"negative-spot": {Spot: Axis{From: -0.5, To: 1, N: 3}},
		"zero-vol":      {Vol: Axis{From: 0, To: 1, N: 2}},
		"nan-rate":      {Rate: Axis{From: math.NaN(), To: 0.01, N: 2}},
		"negative-n":    {Spot: Axis{From: 1, To: 1, N: -1}},
		"grid-blowup":   {Spot: Axis{From: 0.9, To: 1.1, N: 2048}, Vol: Axis{From: 0.9, To: 1.1, N: 2048}},
		// One axis alone past the cap must be refused before its values
		// are allocated; three large axes must not overflow the product.
		"axis-blowup":      {Spot: Axis{From: 0.9, To: 1.1, N: 1 << 40}},
		"product-overflow": {Spot: Axis{From: 1, To: 2, N: 1 << 31}, Vol: Axis{From: 1, To: 2, N: 1 << 31}, Rate: Axis{N: 1 << 31}},
	}
	for name, g := range cases {
		if _, err := g.Shocks(); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestRevalueBitIdenticalToSerialReference is the scenario correctness
// pin: every per-scenario value must equal, bit for bit, a serial
// single-option revaluation of the shocked contracts through the scalar
// reference engine — across rights, styles and all shock kinds.
func TestRevalueBitIdenticalToSerialReference(t *testing.T) {
	const steps = 64
	le := mustEngine(t, steps)
	book := testBook(23)
	for name, shocks := range shockKinds(t) {
		rep, err := New(le, 2).Revalue(Request{Book: book, Shocks: shocks})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Scenarios) != len(shocks) {
			t.Fatalf("%s: got %d scenarios, want %d", name, len(rep.Scenarios), len(shocks))
		}
		// Serial reference: one scalar pricing per shocked contract, in
		// the same accumulation order.
		var base float64
		for _, pos := range book {
			v, err := le.Price(pos.Option)
			if err != nil {
				t.Fatal(err)
			}
			base += pos.Quantity * v
		}
		if rep.BaseValue != base {
			t.Fatalf("%s: base value %v != serial %v", name, rep.BaseValue, base)
		}
		for s, shock := range shocks {
			var want float64
			for _, pos := range book {
				v, err := le.Price(shock.Apply(pos.Option))
				if err != nil {
					t.Fatal(err)
				}
				want += pos.Quantity * v
			}
			if rep.Scenarios[s].Value != want {
				t.Fatalf("%s scenario %d (%s): %v != serial %v",
					name, s, rep.Scenarios[s].Label, rep.Scenarios[s].Value, want)
			}
			if rep.Scenarios[s].PnL != rep.Scenarios[s].Value-base {
				t.Fatalf("%s scenario %d: pnl mismatch", name, s)
			}
		}
	}
}

// TestRevalueChunkingInvariant pins that the micro-batch chunk size
// never changes the numbers, only the submission pattern.
func TestRevalueChunkingInvariant(t *testing.T) {
	le := mustEngine(t, 48)
	book := testBook(9)
	shocks, err := GridSpec{Spot: Axis{From: 0.85, To: 1.15, N: 11}}.Shocks()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(le, 1).Revalue(Request{Book: book, Shocks: shocks})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 100, 1 << 20} {
		rep, err := New(le, 3).WithChunk(chunk).Revalue(Request{Book: book, Shocks: shocks})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if rep.BaseValue != ref.BaseValue {
			t.Fatalf("chunk=%d: base diverged", chunk)
		}
		for s := range ref.Scenarios {
			if rep.Scenarios[s] != ref.Scenarios[s] {
				t.Fatalf("chunk=%d scenario %d: %+v != %+v", chunk, s, rep.Scenarios[s], ref.Scenarios[s])
			}
		}
		if len(rep.Risk) != len(ref.Risk) {
			t.Fatalf("chunk=%d: risk length diverged", chunk)
		}
		for i := range ref.Risk {
			if rep.Risk[i] != ref.Risk[i] {
				t.Fatalf("chunk=%d risk %d: %+v != %+v", chunk, i, rep.Risk[i], ref.Risk[i])
			}
		}
	}
}

// TestRevalueGreeks pins the net-Greeks pass against the quad-lane
// Greeks reference and the SkipGreeks switch.
func TestRevalueGreeks(t *testing.T) {
	le := mustEngine(t, 64)
	book := testBook(11)
	shocks, _ := GridSpec{Spot: Axis{From: 0.9, To: 1.1, N: 3}}.Shocks()

	rep, err := New(le, 2).Revalue(Request{Book: book, Shocks: shocks})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasGreeks {
		t.Fatal("lattice engine offers the Greeks path; report should carry net Greeks")
	}
	opts := make([]option.Option, len(book))
	for i, pos := range book {
		opts[i] = pos.Option
	}
	_, gs, err := le.PriceAndGreeksBatch(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantDelta float64
	for i, pos := range book {
		wantDelta += pos.Quantity * gs[i].Delta
	}
	if rep.Greeks.Delta != wantDelta {
		t.Errorf("net delta %v != %v", rep.Greeks.Delta, wantDelta)
	}

	skipped, err := New(le, 2).Revalue(Request{Book: book, Shocks: shocks, SkipGreeks: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped.HasGreeks || skipped.Greeks != (lattice.Greeks{}) {
		t.Error("SkipGreeks should suppress the Greeks pass")
	}
	if skipped.BaseValue != rep.BaseValue {
		t.Error("SkipGreeks changed the base value")
	}
	for s := range rep.Scenarios {
		if skipped.Scenarios[s] != rep.Scenarios[s] {
			t.Fatalf("SkipGreeks changed scenario %d", s)
		}
	}
}

// TestRevalueEvaluationsFollowGreeksLanes pins the evaluation count to
// the lanes the pricer actually sweeps: five per Greeks position under
// CRR, six under Jarrow–Rudd, whose theta needs its own re-sweep, plus
// one per shocked contract.
func TestRevalueEvaluationsFollowGreeksLanes(t *testing.T) {
	book := testBook(7)
	shocks, _ := GridSpec{Spot: Axis{From: 0.9, To: 1.1, N: 3}}.Shocks()
	for _, c := range []struct {
		e       *lattice.Engine
		perBase int
	}{
		{mustEngine(t, 32), 5},
		{mustEngine(t, 32).WithParameterisation(option.JarrowRudd), 6},
	} {
		rep, err := New(c.e, 2).Revalue(Request{Book: book, Shocks: shocks})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64((c.perBase + len(shocks)) * len(book)); rep.Evaluations != want {
			t.Errorf("%d lanes per position: evaluations %d, want %d", c.perBase, rep.Evaluations, want)
		}
	}
}

// TestRevalueEmptyBook pins the zero-report convention shared with
// ValuePortfolio: an empty book is a valid request.
func TestRevalueEmptyBook(t *testing.T) {
	le := mustEngine(t, 16)
	shocks, _ := GridSpec{Spot: Axis{From: 0.9, To: 1.1, N: 3}}.Shocks()
	rep, err := New(le, 1).Revalue(Request{Book: nil, Shocks: shocks})
	if err != nil {
		t.Fatalf("empty book should revalue to zero, got: %v", err)
	}
	if rep.BaseValue != 0 || rep.Evaluations != 0 || rep.HasGreeks {
		t.Errorf("empty book report not zero: %+v", rep)
	}
	if len(rep.Scenarios) != len(shocks) {
		t.Fatalf("scenario entries should survive an empty book")
	}
	for _, sv := range rep.Scenarios {
		if sv.Value != 0 || sv.PnL != 0 {
			t.Errorf("empty book scenario %+v not zero", sv)
		}
	}
	for _, r := range rep.Risk {
		if r.VaR != 0 || r.ES != 0 {
			t.Errorf("empty book risk %+v not zero", r)
		}
	}
}

func TestRevalueRejectsBadInput(t *testing.T) {
	le := mustEngine(t, 16)
	book := testBook(3)
	good := []Shock{{SpotMul: 1, VolMul: 1}}
	if _, err := New(le, 1).Revalue(Request{Book: book, Shocks: []Shock{{SpotMul: -1, VolMul: 1}}}); err == nil {
		t.Error("negative spot multiplier should fail")
	}
	if _, err := New(le, 1).Revalue(Request{Book: book, Shocks: good, Quantiles: []float64{1.5}}); err == nil {
		t.Error("confidence outside (0,1) should fail")
	}
	bad := testBook(3)
	bad[1].Option.Sigma = -1
	_, err := New(le, 1).Revalue(Request{Book: bad, Shocks: good})
	if err == nil {
		t.Fatal("invalid contract should fail")
	}
	if !strings.Contains(err.Error(), "scenario") {
		t.Errorf("error should carry scenario context: %v", err)
	}
}

func TestRiskMeasures(t *testing.T) {
	// Ten scenarios, P&L -10..-1 reversed into unsorted order.
	pnl := []float64{-3, -7, -1, -9, -5, -10, -2, -8, -4, -6}
	ms, err := RiskMeasures(pnl, []float64{0.95, 0.90, 0.50})
	if err != nil {
		t.Fatal(err)
	}
	// 95%: ceil(0.05*10)=1 tail scenario → VaR = ES = 10.
	if ms[0].VaR != 10 || ms[0].ES != 10 {
		t.Errorf("95%%: %+v", ms[0])
	}
	// 90%: ceil(0.1*10)=1 → worst scenario again.
	if ms[1].VaR != 10 {
		t.Errorf("90%%: %+v", ms[1])
	}
	// 50%: 5 tail scenarios {-10..-6} → VaR 6, ES 8.
	if ms[2].VaR != 6 || ms[2].ES != 8 {
		t.Errorf("50%%: %+v", ms[2])
	}
	if _, err := RiskMeasures(pnl, []float64{0}); err == nil {
		t.Error("confidence 0 should fail")
	}
	empty, err := RiskMeasures(nil, []float64{0.99})
	if err != nil || empty[0].VaR != 0 {
		t.Errorf("empty pnl: %+v, %v", empty, err)
	}
}

// TestLongBookLosesOnSpotDown sanity-checks the sign conventions the
// smoke test's nonzero-VaR assertion relies on: a net-long book of puts
// gains when spot falls, so VaR at high confidence reflects the
// spot-up tail; either way the measures are nonzero under wide spot
// shocks.
func TestLongBookLosesOnSpotDown(t *testing.T) {
	le := mustEngine(t, 64)
	o := option.Option{Right: option.Call, Style: option.European, Spot: 100, Strike: 100, Rate: 0.02, Sigma: 0.2, T: 1}
	book := []Position{{Option: o, Quantity: 100}}
	shocks, _ := GridSpec{Spot: Axis{From: 0.7, To: 1.3, N: 13}}.Shocks()
	rep, err := New(le, 2).Revalue(Request{Book: book, Shocks: shocks, Quantiles: []float64{0.9}})
	if err != nil {
		t.Fatal(err)
	}
	// Long calls lose when spot drops: the worst scenario is spot*0.7.
	if rep.Risk[0].VaR <= 0 {
		t.Errorf("long-call book under spot-down shocks must show positive VaR, got %+v", rep.Risk[0])
	}
	if rep.Risk[0].ES < rep.Risk[0].VaR {
		t.Errorf("ES %v < VaR %v", rep.Risk[0].ES, rep.Risk[0].VaR)
	}
}
