package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/scenario"
)

// scenarioTestBook builds a deterministic mixed book spanning rights,
// styles and signed quantities.
func scenarioTestBook(n int) []ScenarioPosition {
	book := make([]ScenarioPosition, n)
	for i := range book {
		right := "call"
		if i%2 == 1 {
			right = "put"
		}
		style := "european"
		if i%3 == 0 {
			style = "american"
		}
		qty := float64(1 + i%5)
		if i%4 == 3 {
			qty = -qty
		}
		book[i] = ScenarioPosition{
			Contract: Contract{
				Right: right, Style: style,
				Spot:   95 + float64(i%7)*2.5,
				Strike: 100 - float64(i%5)*3,
				Rate:   0.01 + float64(i%3)*0.01,
				Div:    float64(i%2) * 0.01,
				Sigma:  0.15 + float64(i%6)*0.04,
				T:      0.25 + float64(i%4)*0.25,
			},
			Quantity: qty,
		}
	}
	return book
}

// TestScenariosEndToEndBitIdentical drives a grid revaluation through
// the HTTP endpoint and rebuilds every number serially on the reference
// lattice: per-scenario values, base value, net Greeks and the risk
// quantiles must all match bit for bit.
func TestScenariosEndToEndBitIdentical(t *testing.T) {
	const steps = 64
	book := scenarioTestBook(8)
	grid := &scenario.GridSpec{
		Spot: scenario.Axis{From: 0.85, To: 1.15, N: 4},
		Vol:  scenario.Axis{From: 0.9, To: 1.3, N: 3},
		Rate: scenario.Axis{From: -0.01, To: 0.01, N: 3},
	}
	quantiles := []float64{0.9, 0.99}

	_, hs := newTestServer(t, Config{Steps: steps})
	resp, body := postJSON(t, hs.URL+"/v1/scenarios", ScenarioRequest{
		Portfolio: book, Grid: grid, Quantiles: quantiles,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ScenarioResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	shocks, err := grid.Shocks()
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	if len(got.Scenarios) != len(shocks) {
		t.Fatalf("got %d scenarios, want %d", len(got.Scenarios), len(shocks))
	}
	if got.Steps != steps || got.Cached || got.Backend == "" || got.Backend == "cache" {
		t.Fatalf("unexpected response envelope: %+v", got)
	}

	// Serial reference: one scalar engine, one contract at a time, the
	// engine's documented accumulation order.
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	opts := make([]option.Option, len(book))
	for i, p := range book {
		o, err := p.Contract.ToOption()
		if err != nil {
			t.Fatalf("contract %d: %v", i, err)
		}
		opts[i] = o
	}
	basePrices, baseGreeks, err := eng.PriceAndGreeksBatch(opts, 1)
	if err != nil {
		t.Fatalf("base reference: %v", err)
	}
	var wantBase float64
	var wantG lattice.Greeks
	for i, p := range book {
		q := p.Quantity
		wantBase += q * basePrices[i]
		wantG.Delta += q * baseGreeks[i].Delta
		wantG.Gamma += q * baseGreeks[i].Gamma
		wantG.Theta += q * baseGreeks[i].Theta
		wantG.Vega += q * baseGreeks[i].Vega
		wantG.Rho += q * baseGreeks[i].Rho
	}
	if math.Float64bits(got.BaseValue) != math.Float64bits(wantBase) {
		t.Errorf("base value %v != reference %v", got.BaseValue, wantBase)
	}
	if !got.HasGreeks || got.Greeks == nil {
		t.Fatalf("expected greeks in response")
	}
	gotG := lattice.Greeks{Delta: got.Greeks.Delta, Gamma: got.Greeks.Gamma, Theta: got.Greeks.Theta, Vega: got.Greeks.Vega, Rho: got.Greeks.Rho}
	if gotG != wantG {
		t.Errorf("net greeks %+v != reference %+v", gotG, wantG)
	}

	pnl := make([]float64, len(shocks))
	for si, sh := range shocks {
		var want float64
		for _, p := range book {
			o, _ := p.Contract.ToOption()
			price, err := eng.Price(sh.Apply(o))
			if err != nil {
				t.Fatalf("scenario %d reference: %v", si, err)
			}
			want += p.Quantity * price
		}
		if math.Float64bits(got.Scenarios[si].Value) != math.Float64bits(want) {
			t.Fatalf("scenario %d (%s): value %v != serial reference %v",
				si, got.Scenarios[si].Label, got.Scenarios[si].Value, want)
		}
		wantPnL := want - wantBase
		if math.Float64bits(got.Scenarios[si].PnL) != math.Float64bits(wantPnL) {
			t.Fatalf("scenario %d: pnl %v != %v", si, got.Scenarios[si].PnL, wantPnL)
		}
		pnl[si] = wantPnL
	}

	wantRisk, err := scenario.RiskMeasures(pnl, quantiles)
	if err != nil {
		t.Fatalf("risk reference: %v", err)
	}
	if len(got.Risk) != len(wantRisk) {
		t.Fatalf("got %d risk measures, want %d", len(got.Risk), len(wantRisk))
	}
	for i := range wantRisk {
		if got.Risk[i] != wantRisk[i] {
			t.Errorf("risk[%d]: %+v != %+v", i, got.Risk[i], wantRisk[i])
		}
	}
	if got.Evaluations != int64(5*len(book)+len(shocks)*len(book)) {
		t.Errorf("evaluations %d, want %d", got.Evaluations, 5*len(book)+len(shocks)*len(book))
	}
	if got.ModelledJoules <= 0 {
		t.Errorf("expected nonzero modelled joules on an engine backend, got %v", got.ModelledJoules)
	}
	if resp.Header.Get("Server-Timing") == "" || !strings.Contains(resp.Header.Get("Server-Timing"), "joules;dur=") {
		t.Errorf("missing joules slot in Server-Timing: %q", resp.Header.Get("Server-Timing"))
	}
}

// TestScenariosCacheAndInvalidate pins the scenario cache lifecycle: a
// repeated request is served from cache with identical numbers and zero
// fresh energy, and a market-data generation bump flushes it.
func TestScenariosCacheAndInvalidate(t *testing.T) {
	s, hs := newTestServer(t, Config{Steps: 32})
	req := ScenarioRequest{
		Portfolio: scenarioTestBook(4),
		Shocks: []ShockJSON{
			{RateAdd: 0.01},
			{SpotMul: f64p(0.9), VolMul: f64p(1.2)},
		},
	}

	_, body1 := postJSON(t, hs.URL+"/v1/scenarios", req)
	var first ScenarioResponse
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if first.Cached {
		t.Fatalf("first request must miss the cache")
	}

	_, body2 := postJSON(t, hs.URL+"/v1/scenarios", req)
	var second ScenarioResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !second.Cached || second.Backend != "cache" {
		t.Fatalf("second request should hit the cache: %+v", second)
	}
	if second.ModelledJoules != 0 {
		t.Errorf("cache hit booked %v joules", second.ModelledJoules)
	}
	if math.Float64bits(second.BaseValue) != math.Float64bits(first.BaseValue) ||
		len(second.Scenarios) != len(first.Scenarios) {
		t.Fatalf("cached response differs from original")
	}
	for i := range first.Scenarios {
		if second.Scenarios[i] != first.Scenarios[i] {
			t.Fatalf("cached scenario %d differs: %+v != %+v", i, second.Scenarios[i], first.Scenarios[i])
		}
	}
	if hits := s.metrics.scenarioCacheHits.Load(); hits != 1 {
		t.Errorf("scenario cache hits = %d, want 1", hits)
	}

	// A generation bump must flush memoised revaluations too.
	if !s.Invalidate(s.CacheGeneration() + 1) {
		t.Fatalf("invalidate did not apply")
	}
	_, body3 := postJSON(t, hs.URL+"/v1/scenarios", req)
	var third ScenarioResponse
	if err := json.Unmarshal(body3, &third); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if third.Cached {
		t.Fatalf("post-invalidation request must miss the cache")
	}
	if math.Float64bits(third.BaseValue) != math.Float64bits(first.BaseValue) {
		t.Errorf("repriced base value diverged: %v != %v", third.BaseValue, first.BaseValue)
	}
}

func f64p(v float64) *float64 { return &v }

// TestScenariosSkipGreeks pins the router-facing contract: skipping the
// Greeks pass suppresses sensitivities without changing a single value
// bit, and books fewer evaluations.
func TestScenariosSkipGreeks(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32, CacheSize: -1})
	req := ScenarioRequest{
		Portfolio: scenarioTestBook(5),
		Shocks:    []ShockJSON{{SpotMul: f64p(1.1)}, {SpotMul: f64p(0.9)}},
	}
	_, fullBody := postJSON(t, hs.URL+"/v1/scenarios", req)
	req.SkipGreeks = true
	_, skipBody := postJSON(t, hs.URL+"/v1/scenarios", req)

	var full, skip ScenarioResponse
	if err := json.Unmarshal(fullBody, &full); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := json.Unmarshal(skipBody, &skip); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !full.HasGreeks || full.Greeks == nil {
		t.Fatalf("full request should carry greeks")
	}
	if skip.HasGreeks || skip.Greeks != nil {
		t.Fatalf("skip_greeks response still carries greeks")
	}
	if math.Float64bits(skip.BaseValue) != math.Float64bits(full.BaseValue) {
		t.Errorf("skip_greeks changed the base value: %v != %v", skip.BaseValue, full.BaseValue)
	}
	for i := range full.Scenarios {
		if skip.Scenarios[i] != full.Scenarios[i] {
			t.Errorf("skip_greeks changed scenario %d: %+v != %+v", i, skip.Scenarios[i], full.Scenarios[i])
		}
	}
	if skip.Evaluations >= full.Evaluations {
		t.Errorf("skip_greeks should book fewer evaluations: %d >= %d", skip.Evaluations, full.Evaluations)
	}
}

// TestScenariosEmptyBook pins the endpoint's empty-book convention: a
// valid request, the documented zero report.
func TestScenariosEmptyBook(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32})
	resp, body := postJSON(t, hs.URL+"/v1/scenarios", ScenarioRequest{
		Shocks: []ShockJSON{{SpotMul: f64p(0.8)}, {SpotMul: f64p(1.2)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty book should be valid, got %d: %s", resp.StatusCode, body)
	}
	var got ScenarioResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.BaseValue != 0 || got.Evaluations != 0 {
		t.Errorf("empty book should value to zero with no evaluations: %+v", got)
	}
	for _, sv := range got.Scenarios {
		if sv.Value != 0 || sv.PnL != 0 {
			t.Errorf("empty book scenario %q has nonzero value", sv.Label)
		}
	}
	for _, rm := range got.Risk {
		if rm.VaR != 0 || rm.ES != 0 {
			t.Errorf("empty book risk should be zero: %+v", rm)
		}
	}
}

// TestScenariosBadRequests walks the endpoint's 4xx grammar.
func TestScenariosBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32})
	cases := []struct {
		name string
		body any
	}{
		{"no shocks or grid", ScenarioRequest{Portfolio: scenarioTestBook(1)}},
		{"both shocks and grid", ScenarioRequest{
			Portfolio: scenarioTestBook(1),
			Shocks:    []ShockJSON{{RateAdd: 0.01}},
			Grid:      &scenario.GridSpec{Rate: scenario.Axis{From: -0.01, To: 0.01, N: 3}},
		}},
		{"bad contract", ScenarioRequest{
			Portfolio: []ScenarioPosition{{Contract: Contract{Right: "swap", Style: "european", Spot: 100, Strike: 100, Sigma: 0.2, T: 1}}},
			Shocks:    []ShockJSON{{RateAdd: 0.01}},
		}},
		{"bad shock", ScenarioRequest{
			Portfolio: scenarioTestBook(1),
			Shocks:    []ShockJSON{{SpotMul: f64p(-1)}},
		}},
		{"bad quantile", ScenarioRequest{
			Portfolio: scenarioTestBook(1),
			Shocks:    []ShockJSON{{RateAdd: 0.01}},
			Quantiles: []float64{1.5},
		}},
		{"oversized grid", ScenarioRequest{
			Portfolio: scenarioTestBook(1),
			Grid: &scenario.GridSpec{
				Spot: scenario.Axis{From: 0.5, To: 1.5, N: 2000},
				Vol:  scenario.Axis{From: 0.5, To: 1.5, N: 2000},
			},
		}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, hs.URL+"/v1/scenarios", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	getResp, err := http.Get(hs.URL + "/v1/scenarios")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", getResp.StatusCode)
	}

	// Non-finite quantities cannot ride JSON, but the router calls
	// Resolve on already-decoded requests; the guard must hold there.
	bad := ScenarioRequest{
		Portfolio: []ScenarioPosition{{Contract: scenarioTestBook(1)[0].Contract, Quantity: math.Inf(1)}},
		Shocks:    []ShockJSON{{RateAdd: 0.01}},
	}
	if _, _, _, err := bad.Resolve(); err == nil {
		t.Errorf("Resolve accepted an infinite quantity")
	}
}

// TestScenariosMetrics checks the binopt_scenario_* exposition lines
// move with traffic.
func TestScenariosMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32})
	req := ScenarioRequest{
		Portfolio: scenarioTestBook(3),
		Shocks:    []ShockJSON{{RateAdd: 0.01}, {RateAdd: -0.01}},
	}
	postJSON(t, hs.URL+"/v1/scenarios", req)
	postJSON(t, hs.URL+"/v1/scenarios", req) // cache hit

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	page := readAll(t, resp)
	for _, want := range []string{
		"binopt_scenario_requests_total 2",
		"binopt_scenario_cache_hits_total 1",
		"binopt_scenario_shocks_total 2",
		"binopt_scenario_evaluations_total 21", // 5*3 greeks + 2*3 scenario contracts
		"binopt_scenario_modelled_joules_total",
		"binopt_scenario_latency_seconds_mean",
		`binopt_requests_total{endpoint="scenarios"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// placementPool starts a server over the real DefaultBackends engines at
// 16 steps and returns it with its shards ordered cheapest first, the
// order energy-first placement tries them in.
func placementPool(t *testing.T) (*Server, string, []*backend) {
	t.Helper()
	const steps = 16
	bcs, err := DefaultBackends(steps)
	if err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{
		Steps: steps, Backends: bcs, CacheSize: -1,
		Breaker: BreakerConfig{Cooldown: time.Hour},
	})
	byCost := slices.Clone(s.backends)
	slices.SortStableFunc(byCost, func(a, b *backend) int { return cmp.Compare(a.joules, b.joules) })
	return s, hs.URL, byCost
}

// placementRequest is a small grid revaluation with Greeks.
func placementRequest() ScenarioRequest {
	return ScenarioRequest{
		Portfolio: scenarioTestBook(5),
		Grid: &scenario.GridSpec{
			Spot: scenario.Axis{From: 0.9, To: 1.1, N: 3},
			Vol:  scenario.Axis{From: 0.8, To: 1.2, N: 2},
		},
	}
}

// postScenarios posts one revaluation and decodes a 200 answer.
func postScenarios(t *testing.T, url string, req ScenarioRequest) ScenarioResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/scenarios", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ScenarioResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestScenarioPlacedEnergyFirst: with every shard idle, a revaluation
// lands where a contract batch would — on the cheapest shard by joules,
// not the fastest to drain — and books its evaluations at that engine's
// modelled J/option. (At the 16 steps used here the cheapest default
// shard is fpga-ivb; at the paper's 1024 it is embedded-keystone.)
func TestScenarioPlacedEnergyFirst(t *testing.T) {
	_, url, byCost := placementPool(t)
	cheapest := byCost[0]
	fastest := slices.MaxFunc(byCost, func(a, b *backend) int {
		return cmp.Compare(a.rate, b.rate)
	})
	if cheapest == fastest {
		t.Fatalf("%s is both cheapest and fastest; the test cannot tell the policies apart", cheapest.cfg.Name)
	}
	got := postScenarios(t, url, placementRequest())
	if got.Backend != cheapest.cfg.Name {
		t.Errorf("revaluation answered from %s, want the cheapest shard %s", got.Backend, cheapest.cfg.Name)
	}
	want := float64(got.Evaluations) * cheapest.cfg.Engine.ModelledJoulesPerOption()
	if got.Evaluations == 0 || got.ModelledJoules != want {
		t.Errorf("modelled joules %v for %d evaluations, want %v", got.ModelledJoules, got.Evaluations, want)
	}
}

// TestScenarioSkipsOpenBreaker: the breakers that shed contract batches
// shed revaluations too — with the cheapest shard's breaker open, the
// next-cheapest answers.
func TestScenarioSkipsOpenBreaker(t *testing.T) {
	_, url, byCost := placementPool(t)
	b := byCost[0].breaker
	b.mu.Lock()
	b.trip()
	b.mu.Unlock()
	if got := postScenarios(t, url, placementRequest()); got.Backend != byCost[1].cfg.Name {
		t.Errorf("revaluation answered from %s with %s's breaker open, want %s",
			got.Backend, byCost[0].cfg.Name, byCost[1].cfg.Name)
	}
}

// TestScenarioFailsOver: when the first-choice engine faults, the
// attempt is booked against its breaker and error counters, and the
// revaluation retries on the next shard, answering bit-identically to
// the reference lattice.
func TestScenarioFailsOver(t *testing.T) {
	s, url, byCost := placementPool(t)
	first := byCost[0]
	first.cfg.Engine.SetFaultHook(func() error { return errors.New("injected fault") })

	req := placementRequest()
	got := postScenarios(t, url, req)
	if got.Backend != byCost[1].cfg.Name {
		t.Errorf("revaluation answered from %s, want the next-cheapest %s", got.Backend, byCost[1].cfg.Name)
	}

	book, shocks, quantiles, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lattice.NewEngine(s.cfg.Steps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.New(ref, 0).Revalue(scenario.Request{Book: book, Shocks: shocks, Quantiles: quantiles})
	if err != nil {
		t.Fatal(err)
	}
	gotRep := scenario.Report{
		BaseValue: got.BaseValue, HasGreeks: got.HasGreeks,
		Scenarios: got.Scenarios, Risk: got.Risk, Evaluations: got.Evaluations,
	}
	if got.Greeks != nil {
		gotRep.Greeks = lattice.Greeks{Delta: got.Greeks.Delta, Gamma: got.Greeks.Gamma, Theta: got.Greeks.Theta, Vega: got.Greeks.Vega, Rho: got.Greeks.Rho}
	}
	// JSON renders each float64 in its shortest round-trip form, so
	// equal encodings are equal bits.
	gj, _ := json.Marshal(gotRep)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("failed-over revaluation differs from the reference:\n got %s\nwant %s", gj, wj)
	}

	if n := first.errs.Load(); n != 1 {
		t.Errorf("%s error counter = %d, want 1", first.cfg.Name, n)
	}
	first.breaker.mu.Lock()
	fails := first.breaker.fails
	first.breaker.mu.Unlock()
	if fails != 1 {
		t.Errorf("%s breaker window holds %d failures, want 1", first.cfg.Name, fails)
	}
	if n := s.metrics.retries.Load(); n != 1 {
		t.Errorf("retries = %d, want 1", n)
	}
	if n := s.metrics.priceErrors.Load(); n != 1 {
		t.Errorf("price errors = %d, want 1", n)
	}
}

// TestScenarioSaturated429: revaluations hold their shard slots while
// they run and wait in the FIFO for one otherwise, so once every engine
// shard's workers are claimed and as many revaluations again wait, the
// next one gets 429 with Retry-After; the held and waiting ones finish.
func TestScenarioSaturated429(t *testing.T) {
	s, url, byCost := placementPool(t)
	capacity := 0
	// Every engine call of every revaluation sends once; the buffer is
	// far beyond capacity × the few calls one revaluation makes, so a
	// released hook never blocks on it.
	entered := make(chan struct{}, 1024)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the server's own cleanup
	for _, be := range byCost {
		capacity += be.cfg.Workers
		be.cfg.Engine.SetFaultHook(func() error {
			entered <- struct{}{}
			<-release
			return nil
		})
	}

	req := placementRequest()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	statuses := make(chan int, 2*capacity)
	for i := 0; i < 2*capacity; i++ {
		go func() {
			resp, err := http.Post(url+"/v1/scenarios", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	for held := 0; held < capacity; {
		select {
		case <-entered:
			held++
		case st := <-statuses:
			t.Fatalf("a revaluation finished with status %d before all %d slots were held", st, capacity)
		}
	}
	for s.batcher.waitingRuns() < capacity {
		select {
		case st := <-statuses:
			t.Fatalf("a revaluation finished with status %d before %d more waited", st, capacity)
		case <-time.After(time.Millisecond):
		}
	}

	resp, out := postJSON(t, url+"/v1/scenarios", req)
	unblock()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d with every slot held, want 429: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	for i := 0; i < 2*capacity; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("held or waiting revaluation finished with status %d, want 200", st)
		}
	}
}
