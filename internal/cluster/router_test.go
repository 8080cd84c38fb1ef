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
	"binopt/internal/scenario"
	"binopt/internal/serve"
)

// fakeNode is a scripted stand-in for a member: it answers /v1/price
// and /v1/scenarios with deterministic values (a contract's price is its
// spot, a scenario's value its spot multiplier, so assertions can tell
// who answered what) after an optional delay, fails with a scripted
// status, or answers 200 with a scripted bad body.
type fakeNode struct {
	delay  time.Duration
	status atomic.Int64 // 0 = answer normally, else fail with this code
	// bad, when non-empty, is sent verbatim as a 200 body in place of
	// the answer: a truncated or short reply.
	bad  atomic.Value // string
	hits atomic.Int64
}

// fakeRoute runs one scripted request: count it, straggle, fail, or decode
// the body into req and let answer build the reply.
func fakeRoute[Req any](f *fakeNode, answer func(Req) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
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
		if bad, _ := f.bad.Load().(string); bad != "" {
			w.Write([]byte(bad))
			return
		}
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(answer(req))
	}
}

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/v1/price", fakeRoute(f, func(req serve.PriceRequest) any {
		results := make([]serve.Result, len(req.Contracts))
		for i, c := range req.Contracts {
			results[i] = serve.Result{Price: c.Spot, Backend: "fake"}
		}
		return serve.PriceResponse{Steps: 64, Results: results}
	}))
	mux.HandleFunc("/v1/scenarios", fakeRoute(f, func(req serve.ScenarioRequest) any {
		out := serve.ScenarioResponse{Steps: 64, BaseValue: 1, HasGreeks: !req.SkipGreeks}
		if out.HasGreeks {
			out.Greeks = &serve.GreeksJSON{Delta: 1}
		}
		for _, sh := range req.Shocks {
			out.Scenarios = append(out.Scenarios, scenario.ScenarioValue{Value: *sh.SpotMul, PnL: *sh.SpotMul - 1})
		}
		return out
	}))
	return mux
}

// routedPath is one routed endpoint as the router tests drive it: a
// one-item request tagged with tag, that item's ring placement key, and
// the tag a fake node echoes back.
type routedPath struct {
	name string
	path string
	body func(tag float64) any
	key  func(t *testing.T, tag float64) string
	echo func(t *testing.T, body []byte) float64
}

var routedPaths = []routedPath{
	{
		name: "price", path: "/v1/price",
		body: func(tag float64) any { return serve.PriceRequest{Contracts: []serve.Contract{contractFor(tag)}} },
		key: func(t *testing.T, tag float64) string {
			return serve.KeyFor(mustOption(t, contractFor(tag)), 64).String()
		},
		echo: func(t *testing.T, body []byte) float64 {
			var pr serve.PriceResponse
			if err := json.Unmarshal(body, &pr); err != nil || len(pr.Results) != 1 {
				t.Fatalf("decode %s: %v", body, err)
			}
			return pr.Results[0].Price
		},
	},
	{
		name: "scenarios", path: "/v1/scenarios",
		body: func(tag float64) any {
			return serve.ScenarioRequest{
				Portfolio: scenarioBook(1),
				Shocks:    []serve.ShockJSON{{SpotMul: &tag}},
			}
		},
		key: func(t *testing.T, tag float64) string {
			return scenario.Shock{SpotMul: tag, VolMul: 1}.Key()
		},
		echo: func(t *testing.T, body []byte) float64 {
			var sr serve.ScenarioResponse
			if err := json.Unmarshal(body, &sr); err != nil || len(sr.Scenarios) != 1 {
				t.Fatalf("decode %s: %v", body, err)
			}
			if !sr.HasGreeks {
				t.Errorf("routed scenario lost its greeks: %s", body)
			}
			return sr.Scenarios[0].Value
		},
	},
}

// routeOne pushes one tagged item through the router handler on p's
// path and returns the HTTP status and, on 200, the echoed tag.
func (p routedPath) routeOne(t *testing.T, rt *Router, tag float64) (int, float64) {
	t.Helper()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	resp, body := postJSON(t, hs.URL+p.path, p.body(tag))
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0
	}
	return resp.StatusCode, p.echo(t, body)
}

// ownerOf returns the index of the fake node owning tag's item on p.
func (p routedPath) ownerOf(t *testing.T, rt *Router, tag float64) (string, int) {
	owner := rt.Ring().Owner(p.key(t, tag))
	return owner, int(owner[len(owner)-1] - 'a')
}

// failovers reads the failover counter p's endpoint books.
func (p routedPath) failovers(rt *Router) int64 {
	if p.path == "/v1/scenarios" {
		return rt.metrics.scenarioFailovers.Load()
	}
	return rt.metrics.failovers.Load()
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

// TestRouterFailover: the owner failing with 500 must be invisible to
// the client on either routed path — the item re-places onto the ring
// successor within the same request, and the failure feeds the owner's
// breaker.
func TestRouterFailover(t *testing.T) {
	for _, p := range routedPaths {
		t.Run(p.name, func(t *testing.T) {
			fakes, rt := newFakeRouter(t, 2, Config{Steps: 64, MaxAttempts: 2})
			owner, ownerIdx := p.ownerOf(t, rt, 123)
			fakes[ownerIdx].status.Store(http.StatusInternalServerError)

			status, got := p.routeOne(t, rt, 123)
			if status != http.StatusOK {
				t.Fatalf("HTTP %d with a live successor", status)
			}
			if got != 123 {
				t.Fatalf("answer %v, want 123", got)
			}
			if p.failovers(rt) == 0 {
				t.Error("failover counter did not move")
			}
			if errs := rt.members[owner].errs.Load(); errs == 0 {
				t.Error("owner error counter did not move")
			}
		})
	}
}

// TestRouterBadReplyFailsOver: a 200 whose body is truncated or answers
// the wrong number of items is node ill-health, not the request's fault.
// On either routed path, hedged or not, the item must fail over to the
// ring successor and the client must get the right answer — never a 200
// carrying an error. With every node answering badly the client gets a
// 502.
func TestRouterBadReplyFailsOver(t *testing.T) {
	bodies := map[string]string{"truncated": `{"results":[{"pri`, "short": `{}`}
	for _, p := range routedPaths {
		for kind, bad := range bodies {
			for _, hedge := range []time.Duration{0, time.Minute} {
				t.Run(p.name+"/"+kind+"/hedge="+hedge.String(), func(t *testing.T) {
					fakes, rt := newFakeRouter(t, 2, Config{Steps: 64, MaxAttempts: 2, Hedge: hedge})
					owner, ownerIdx := p.ownerOf(t, rt, 123)
					fakes[ownerIdx].bad.Store(bad)

					status, got := p.routeOne(t, rt, 123)
					if status != http.StatusOK || got != 123 {
						t.Fatalf("HTTP %d answer %v, want 200 and 123 from the successor", status, got)
					}
					if fakes[1-ownerIdx].hits.Load() == 0 {
						t.Error("successor never saw the item")
					}
					if errs := rt.members[owner].errs.Load(); errs == 0 {
						t.Error("owner error counter did not move")
					}

					fakes[1-ownerIdx].bad.Store(bad)
					if status, _ := p.routeOne(t, rt, 123); status != http.StatusBadGateway {
						t.Errorf("every node answering badly: HTTP %d, want 502", status)
					}
				})
			}
		}
	}
}

// TestRouterPermanentErrorPassthrough: a 400 from the node is the
// request's own fault and would fail identically everywhere; the router
// must not burn attempts on successors, must not mask the status, and
// must not count it against any node's health.
func TestRouterPermanentErrorPassthrough(t *testing.T) {
	for _, p := range routedPaths {
		t.Run(p.name, func(t *testing.T) {
			// A breaker this eager opens on one booked failure.
			fakes, rt := newFakeRouter(t, 3, Config{
				Steps: 64, MaxAttempts: 3,
				Breaker: serve.BreakerConfig{MinSamples: 1, Threshold: 0.01},
			})
			for _, f := range fakes {
				f.status.Store(http.StatusBadRequest)
			}
			status, _ := p.routeOne(t, rt, 50)
			if status != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400 passed through", status)
			}
			var forwards int64
			for _, f := range fakes {
				forwards += f.hits.Load()
			}
			if forwards != 1 {
				t.Errorf("%d forwards, want exactly 1", forwards)
			}
			if n := p.failovers(rt); n != 0 {
				t.Errorf("%d failovers, want 0", n)
			}
			for name, m := range rt.members {
				if st, _ := m.breaker.State(); st != "closed" || m.breaker.Opens() != 0 {
					t.Errorf("node %s breaker %s (opens %d) after a client fault, want closed",
						name, st, m.breaker.Opens())
				}
			}
		})
	}
}

// TestRouterHedging: a straggling owner is raced against its successor
// after the hedge delay on either routed path; the fast duplicate
// answers the client and is booked as a hedge win. The slow node's
// breaker must NOT be fed a failure for losing the race — its request
// was cancelled by us.
func TestRouterHedging(t *testing.T) {
	for _, p := range routedPaths {
		t.Run(p.name, func(t *testing.T) {
			fakes, rt := newFakeRouter(t, 2, Config{Steps: 64, Hedge: 20 * time.Millisecond})
			owner, ownerIdx := p.ownerOf(t, rt, 77)
			fakes[ownerIdx].delay = 400 * time.Millisecond

			start := time.Now()
			status, got := p.routeOne(t, rt, 77)
			elapsed := time.Since(start)
			if status != http.StatusOK {
				t.Fatalf("HTTP %d", status)
			}
			if got != 77 {
				t.Fatalf("answer %v, want 77", got)
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
		})
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
	status, _ := routedPaths[0].routeOne(t, rt, 10)
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
