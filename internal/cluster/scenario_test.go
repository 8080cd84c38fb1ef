package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"binopt/internal/scenario"
	"binopt/internal/serve"
)

// scenarioBook builds a deterministic mixed book spanning rights,
// styles and signed quantities — the same shape the serve-tier tests
// use, sized for fleet runs.
func scenarioBook(n int) []serve.ScenarioPosition {
	book := make([]serve.ScenarioPosition, n)
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
		book[i] = serve.ScenarioPosition{
			Contract: serve.Contract{
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

// newSoloServer boots a single serve.Server behind a test listener, the
// solo baseline the fleet answers are compared against.
func newSoloServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return hs
}

func postScenarios(t *testing.T, base string, req serve.ScenarioRequest) serve.ScenarioResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/scenarios", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/v1/scenarios: HTTP %d: %s", base, resp.StatusCode, body)
	}
	var out serve.ScenarioResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

// requireScenarioEqual asserts the fleet and solo revaluations agree on
// everything distribution must not change: base value, net Greeks,
// every per-scenario value and P&L, and the risk quantiles. Evaluations
// and joules are deliberately excluded — each fleet shard reprices the
// base book, so the fleet's energy ledger is honestly larger.
func requireScenarioEqual(t *testing.T, fleet, solo serve.ScenarioResponse) {
	t.Helper()
	if math.Float64bits(fleet.BaseValue) != math.Float64bits(solo.BaseValue) {
		t.Errorf("base value: fleet %x, solo %x", fleet.BaseValue, solo.BaseValue)
	}
	if fleet.HasGreeks != solo.HasGreeks {
		t.Errorf("has_greeks: fleet %t, solo %t", fleet.HasGreeks, solo.HasGreeks)
	}
	if fleet.HasGreeks && solo.HasGreeks && *fleet.Greeks != *solo.Greeks {
		t.Errorf("greeks: fleet %+v, solo %+v", *fleet.Greeks, *solo.Greeks)
	}
	if len(fleet.Scenarios) != len(solo.Scenarios) {
		t.Fatalf("scenario count: fleet %d, solo %d", len(fleet.Scenarios), len(solo.Scenarios))
	}
	for i := range solo.Scenarios {
		if fleet.Scenarios[i] != solo.Scenarios[i] {
			t.Fatalf("scenario %d: fleet %+v, solo %+v", i, fleet.Scenarios[i], solo.Scenarios[i])
		}
	}
	if len(fleet.Risk) != len(solo.Risk) {
		t.Fatalf("risk count: fleet %d, solo %d", len(fleet.Risk), len(solo.Risk))
	}
	for i := range solo.Risk {
		if fleet.Risk[i] != solo.Risk[i] {
			t.Errorf("risk %d: fleet %+v, solo %+v", i, fleet.Risk[i], solo.Risk[i])
		}
	}
}

// TestFleetScenariosBitIdenticalToSolo is the scenario fabric's
// foundational claim, mirroring TestFleetBitIdentical for /v1/price: a
// stress grid revalued through a sharded fleet equals the same request
// answered by one solo node bit for bit — sharding the scenario axis,
// skip-greeks placement and the router's risk recomputation are
// numerically invisible.
func TestFleetScenariosBitIdenticalToSolo(t *testing.T) {
	const steps = 64
	req := serve.ScenarioRequest{
		Portfolio: scenarioBook(21),
		Grid: &scenario.GridSpec{
			Spot: scenario.Axis{From: 0.8, To: 1.2, N: 5},
			Vol:  scenario.Axis{From: 0.85, To: 1.3, N: 4},
			Rate: scenario.Axis{From: -0.01, To: 0.01, N: 3},
		},
		Quantiles: []float64{0.9, 0.95, 0.99},
	}

	solo := newSoloServer(t, serve.Config{Steps: steps})
	want := postScenarios(t, solo.URL, req)
	if !want.HasGreeks {
		t.Fatalf("solo baseline carries no greeks")
	}

	_, rt, hs := newTestFleet(t, 3, serve.Config{Steps: steps}, Config{Steps: steps})
	got := postScenarios(t, hs.URL, req)
	requireScenarioEqual(t, got, want)

	if got.Backend != "fleet" {
		t.Errorf("backend = %q, want fleet", got.Backend)
	}
	if shards := rt.metrics.scenarioShards.Load(); shards < 2 {
		t.Errorf("scenario axis did not shard: %d sub-requests", shards)
	}
	var nonzero int
	for _, rm := range got.Risk {
		if rm.VaR != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Errorf("expected nonzero VaR on a shocked book: %+v", got.Risk)
	}
}

// TestFleetScenariosFailover kills a member mid-fleet and requires the
// routed revaluation to still come back complete and bit-identical —
// the failed node's scenario groups re-place onto ring successors, and
// if the dead node owned the Greeks pass, the re-placement carries it.
func TestFleetScenariosFailover(t *testing.T) {
	const steps = 32
	req := serve.ScenarioRequest{
		Portfolio: scenarioBook(6),
		Grid: &scenario.GridSpec{
			Spot: scenario.Axis{From: 0.9, To: 1.1, N: 5},
			Vol:  scenario.Axis{From: 0.9, To: 1.2, N: 4},
		},
	}
	solo := newSoloServer(t, serve.Config{Steps: steps})
	want := postScenarios(t, solo.URL, req)

	f, rt, hs := newTestFleet(t, 3,
		serve.Config{Steps: steps},
		Config{Steps: steps, Heartbeat: -1}) // no heartbeat: the forward itself must discover the corpse
	f.Kill(1)

	got := postScenarios(t, hs.URL, req)
	requireScenarioEqual(t, got, want)
	if rt.metrics.scenarioFailovers.Load() == 0 {
		t.Logf("note: ring placed no scenarios on the killed node this layout")
	}
}

// TestFleetScenariosBadRequest pins that malformed requests die at the
// router with 400 and are never forwarded.
func TestFleetScenariosBadRequest(t *testing.T) {
	const steps = 32
	_, rt, hs := newTestFleet(t, 2, serve.Config{Steps: steps}, Config{Steps: steps})
	resp, _ := postJSON(t, hs.URL+"/v1/scenarios", serve.ScenarioRequest{Portfolio: scenarioBook(1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if rt.metrics.scenarioShards.Load() != 0 {
		t.Errorf("bad request was forwarded to %d shards", rt.metrics.scenarioShards.Load())
	}
}

// straggler is a router transport under which one member answers
// /v1/scenarios late: every forward to host waits out delay first,
// unless the router cancels it (a hedge rival won).
type straggler struct {
	host  string
	delay time.Duration
}

func (s straggler) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host == s.host && r.URL.Path == "/v1/scenarios" {
		select {
		case <-time.After(s.delay):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestFleetScenariosHedgedStragglerBitIdentical: scenario fan-out hedges
// through the same Config.Hedge as price sub-batches. With the Greeks
// owner straggling, its group's hedged duplicate answers, the grid still
// equals a solo node bit for bit, and the Greeks are merged exactly
// once — the hedged fleet books the same evaluations as an unhedged
// router over the same nodes, so no duplicate reply was merged twice.
func TestFleetScenariosHedgedStragglerBitIdentical(t *testing.T) {
	const steps = 32
	const delay = 3 * time.Second
	req := serve.ScenarioRequest{
		Portfolio: scenarioBook(6),
		Grid: &scenario.GridSpec{
			Spot: scenario.Axis{From: 0.9, To: 1.1, N: 5},
			Vol:  scenario.Axis{From: 0.9, To: 1.2, N: 4},
		},
		Quantiles: []float64{0.95, 0.99},
	}
	_, shocks, _, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Node caches off, so every sub-request is priced and counted.
	nodeCfg := serve.Config{Steps: steps, CacheSize: -1}
	want := postScenarios(t, newSoloServer(t, nodeCfg).URL, req)

	// Unhedged baseline over the same members (and so the same layout).
	f, base, hs := newTestFleet(t, 3, nodeCfg, Config{Steps: steps, Heartbeat: -1})
	plain := postScenarios(t, hs.URL, req)
	requireScenarioEqual(t, plain, want)

	// The Greeks ride with scenario 0's group: straggle its owner.
	owner := base.Ring().Owner(shocks[0].Key())
	var host string
	for _, n := range f.Nodes() {
		if n.Name == owner {
			host = strings.TrimPrefix(n.BaseURL, "http://")
		}
	}
	rt, err := NewRouter(Config{
		Nodes: f.Nodes(), Steps: steps, Heartbeat: -1,
		Hedge:     20 * time.Millisecond,
		Transport: straggler{host: host, delay: delay},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hhs := httptest.NewServer(rt.Handler())
	defer hhs.Close()

	start := time.Now()
	got := postScenarios(t, hhs.URL, req)
	if elapsed := time.Since(start); elapsed >= delay {
		t.Errorf("request took %v — the hedge never cut the straggling owner", elapsed)
	}
	requireScenarioEqual(t, got, want)
	if rt.metrics.hedgeWins.Load() == 0 {
		t.Error("no hedged scenario sub-request won")
	}
	if got.Evaluations != plain.Evaluations {
		t.Errorf("hedged fleet booked %d evaluations, unhedged %d — a reply was merged twice",
			got.Evaluations, plain.Evaluations)
	}
}
