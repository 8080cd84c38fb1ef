package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"binopt/internal/option"
	"binopt/internal/serve"
)

// fakeNode is a scripted stand-in for a member: it answers /v1/price
// with deterministic prices (price = spot, so assertions can tell who
// answered what) after an optional delay, or fails with a scripted
// status.
type fakeNode struct {
	delay  time.Duration
	status atomic.Int64 // 0 = answer normally, else fail with this code
	hits   atomic.Int64
}

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/v1/price", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-r.Context().Done():
				return
			}
		}
		if code := f.status.Load(); code != 0 {
			http.Error(w, "scripted failure", int(code))
			return
		}
		var req serve.PriceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]serve.Result, len(req.Contracts))
		for i, c := range req.Contracts {
			results[i] = serve.Result{Price: c.Spot, Backend: "fake"}
		}
		json.NewEncoder(w).Encode(serve.PriceResponse{Steps: 64, Results: results})
	})
	return mux
}

// contractFor builds a valid contract whose spot doubles as an
// identity tag in fake-node responses.
func contractFor(spot float64) serve.Contract {
	return serve.Contract{
		Right: "put", Style: "american",
		Spot: spot, Strike: 100, Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
}

// newFakeRouter builds a router over n fake nodes. Heartbeats are off
// unless the config says otherwise; forward outcomes drive the
// breakers.
func newFakeRouter(t *testing.T, n int, cfg Config) ([]*fakeNode, *Router) {
	t.Helper()
	fakes := make([]*fakeNode, n)
	for i := range fakes {
		fakes[i] = &fakeNode{}
		hs := httptest.NewServer(fakes[i].handler())
		t.Cleanup(hs.Close)
		cfg.Nodes = append(cfg.Nodes, Node{Name: nodeName(i), BaseURL: hs.URL})
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = -1 // off by default in unit tests
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return fakes, rt
}

func nodeName(i int) string { return "node-" + string(rune('a'+i)) }

// priceOne pushes one contract through the router handler and returns
// the HTTP status and decoded response.
func priceOne(t *testing.T, rt *Router, c serve.Contract) (int, serve.PriceResponse) {
	t.Helper()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	resp, body := postJSON(t, hs.URL+"/v1/price", serve.PriceRequest{Contracts: []serve.Contract{c}})
	var pr serve.PriceResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode, pr
}

// TestRouterFailover: the owner failing with 500 must be invisible to
// the client — the contract re-places onto the ring successor within
// the same request, and the failure feeds the owner's breaker.
func TestRouterFailover(t *testing.T) {
	fakes, rt := newFakeRouter(t, 2, Config{Steps: 64, MaxAttempts: 2})

	c := contractFor(123)
	key := serve.KeyFor(mustOption(t, c), 64).String()
	owner := rt.Ring().Owner(key)
	ownerIdx := int(owner[len(owner)-1] - 'a')
	fakes[ownerIdx].status.Store(http.StatusInternalServerError)

	status, pr := priceOne(t, rt, c)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d with a live successor", status)
	}
	if pr.Results[0].Price != 123 {
		t.Fatalf("price %v, want 123", pr.Results[0].Price)
	}
	if got := rt.metrics.failovers.Load(); got == 0 {
		t.Error("failover counter did not move")
	}
	if errs := rt.members[owner].errs.Load(); errs == 0 {
		t.Error("owner error counter did not move")
	}
}

// TestRouterPermanentErrorPassthrough: a 400 from the node is the
// request's own fault; the router must not burn attempts on successors
// or mask the status.
func TestRouterPermanentErrorPassthrough(t *testing.T) {
	fakes, rt := newFakeRouter(t, 2, Config{Steps: 64, MaxAttempts: 2})
	for _, f := range fakes {
		f.status.Store(http.StatusBadRequest)
	}
	status, _ := priceOne(t, rt, contractFor(50))
	if status != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400 passed through", status)
	}
}

// TestRouterHedging: a straggling owner is raced against its successor
// after the hedge delay; the fast duplicate answers the client and is
// booked as a hedge win. The slow node's breaker must NOT be fed a
// failure for losing the race — its request was cancelled by us.
func TestRouterHedging(t *testing.T) {
	fakes, rt := newFakeRouter(t, 2, Config{Steps: 64, Hedge: 20 * time.Millisecond})

	c := contractFor(77)
	key := serve.KeyFor(mustOption(t, c), 64).String()
	owner := rt.Ring().Owner(key)
	ownerIdx := int(owner[len(owner)-1] - 'a')
	fakes[ownerIdx].delay = 400 * time.Millisecond

	start := time.Now()
	status, pr := priceOne(t, rt, c)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	if pr.Results[0].Price != 77 {
		t.Fatalf("price %v, want 77", pr.Results[0].Price)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("request took %v — hedge never cut the straggler", elapsed)
	}
	if rt.metrics.hedges.Load() == 0 || rt.metrics.hedgeWins.Load() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0",
			rt.metrics.hedges.Load(), rt.metrics.hedgeWins.Load())
	}
	if st, _ := rt.members[owner].breaker.State(); st != "closed" {
		t.Errorf("slow owner's breaker %s after losing a hedge race, want closed", st)
	}
}

// TestRouterAllNodesDown: with every node failing, the client gets an
// error after MaxAttempts — bounded, not hung — and the route-error
// counter moves.
func TestRouterAllNodesDown(t *testing.T) {
	fakes, rt := newFakeRouter(t, 3, Config{Steps: 64, MaxAttempts: 3})
	for _, f := range fakes {
		f.status.Store(http.StatusInternalServerError)
	}
	status, _ := priceOne(t, rt, contractFor(10))
	if status != http.StatusBadGateway {
		t.Fatalf("HTTP %d, want 502", status)
	}
	if rt.metrics.routeErrors.Load() != 1 {
		t.Errorf("routeErrors = %d, want 1", rt.metrics.routeErrors.Load())
	}
}

// TestRouterGroupsByOwner: a batch splits across nodes by ring
// ownership — with two nodes and many contracts both must see traffic,
// and the merged response must preserve input order.
func TestRouterGroupsByOwner(t *testing.T) {
	fakes, rt := newFakeRouter(t, 2, Config{Steps: 64})
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	req := serve.PriceRequest{}
	for i := 0; i < 64; i++ {
		req.Contracts = append(req.Contracts, contractFor(float64(1000+i)))
	}
	resp, body := postJSON(t, hs.URL+"/v1/price", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var pr serve.PriceResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, r := range pr.Results {
		if r.Price != float64(1000+i) {
			t.Fatalf("result %d carries price %v — merge broke input order", i, r.Price)
		}
	}
	if fakes[0].hits.Load() == 0 || fakes[1].hits.Load() == 0 {
		t.Errorf("hits %d/%d — batch did not split across the ring",
			fakes[0].hits.Load(), fakes[1].hits.Load())
	}
}

// TestRouterRejectsBadConfig: empty membership and duplicate names are
// construction-time errors, not runtime surprises.
func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRouter(Config{Nodes: []Node{
		{Name: "a", BaseURL: "http://x"}, {Name: "a", BaseURL: "http://y"},
	}}); err == nil {
		t.Error("duplicate node name accepted")
	}
	if _, err := NewRouter(Config{Nodes: []Node{{Name: "a"}}}); err == nil {
		t.Error("node without base URL accepted")
	}
}

func mustOption(t *testing.T, c serve.Contract) option.Option {
	t.Helper()
	opt, err := c.ToOption()
	if err != nil {
		t.Fatalf("ToOption: %v", err)
	}
	return opt
}

// TestRouterOversizeBody413: the router refuses a body over the node
// bound with 413 itself, on both routed endpoints, instead of
// forwarding truncated JSON or answering 400.
func TestRouterOversizeBody413(t *testing.T) {
	const steps = 16
	_, _, hs := newTestFleet(t, 1, serve.Config{Steps: steps}, Config{Steps: steps})
	body := bytes.Repeat([]byte(" "), serve.MaxBodyBytes+1)
	copy(body, `{"contracts":[`)
	for _, path := range []string{"/v1/price", "/v1/scenarios"} {
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}
