package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"binopt/internal/accel"
	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/volatility"
	"binopt/internal/workload"
)

// newTestServer builds a server and its HTTP front end, torn down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestEndToEndVolCurveBitForBit prices the paper's full 2000-put chain
// through the HTTP batch endpoint and checks every price equals the
// direct library pricing exactly — batching, sharding and caching must be
// numerically invisible.
func TestEndToEndVolCurveBitForBit(t *testing.T) {
	const steps = 128
	chain, err := workload.Chain(workload.DefaultVolCurveSpec(7))
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := eng.PriceBatch(chain, 0)
	if err != nil {
		t.Fatalf("reference batch: %v", err)
	}

	_, hs := newTestServer(t, Config{Steps: steps, CacheSize: 4096})

	got := make([]float64, 0, len(chain))
	cached := 0
	const reqBatch = 250
	for at := 0; at < len(chain); at += reqBatch {
		end := at + reqBatch
		if end > len(chain) {
			end = len(chain)
		}
		req := PriceRequest{}
		for _, o := range chain[at:end] {
			req.Contracts = append(req.Contracts, FromOption(o))
		}
		resp, body := postJSON(t, hs.URL+"/v1/price", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var pr PriceResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if pr.Steps != steps {
			t.Fatalf("steps = %d, want %d", pr.Steps, steps)
		}
		for _, r := range pr.Results {
			got = append(got, r.Price)
			if r.Cached {
				cached++
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d prices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("option %d (%v): served %v, library %v (must match bit-for-bit)", i, chain[i], got[i], want[i])
		}
	}
	// The chain has distinct jittered strikes, so the first pass must
	// miss; a second pass over a subset must hit.
	if cached != 0 {
		t.Fatalf("first pass reported %d cache hits, want 0", cached)
	}
	req := PriceRequest{Contracts: []Contract{FromOption(chain[0]), FromOption(chain[1])}}
	resp, body := postJSON(t, hs.URL+"/v1/price", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	var pr PriceResponse
	json.Unmarshal(body, &pr)
	for i, r := range pr.Results {
		if !r.Cached || r.Backend != "cache" {
			t.Fatalf("repeat result %d not served from cache: %+v", i, r)
		}
		if r.Price != want[i] {
			t.Fatalf("cached price %v != library %v", r.Price, want[i])
		}
		if r.ModelledJoules != 0 {
			t.Fatalf("cache hit billed %v J, want 0", r.ModelledJoules)
		}
	}
}

// TestSingleContractShorthand posts a bare contract object.
func TestSingleContractShorthand(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64})
	c := Contract{Right: "put", Style: "american", Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}
	resp, body := postJSON(t, hs.URL+"/v1/price", c)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PriceResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(pr.Results) != 1 || pr.Results[0].Price <= 0 {
		t.Fatalf("unexpected response: %+v", pr)
	}
	if pr.Results[0].Backend == "" || pr.Results[0].ModelledJoules <= 0 {
		t.Fatalf("miss must name its backend and bill modelled energy: %+v", pr.Results[0])
	}
}

// TestBadRequests exercises the 400 paths.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64})
	cases := []struct {
		name string
		body string
	}{
		{"garbage", "{"},
		{"empty batch", `{"contracts":[]}`},
		{"bad right", `{"right":"straddle","style":"american","spot":100,"strike":100,"rate":0,"sigma":0.2,"t":1}`},
		{"bad style", `{"right":"put","style":"bermudan","spot":100,"strike":100,"rate":0,"sigma":0.2,"t":1}`},
		{"negative spot", `{"right":"put","style":"american","spot":-5,"strike":100,"rate":0,"sigma":0.2,"t":1}`},
		{"zero sigma", `{"right":"put","style":"american","spot":100,"strike":100,"rate":0,"sigma":0,"t":1}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/price", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if resp, err := http.Get(hs.URL + "/v1/price"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/price: status %d, want 405", resp.StatusCode)
		}
	}
}

// oversizeBody is one byte over MaxBodyBytes: a JSON prefix padded with
// whitespace, so a streaming decoder also reads up to the bound.
func oversizeBody() []byte {
	body := bytes.Repeat([]byte(" "), MaxBodyBytes+1)
	copy(body, `{"contracts":[`)
	return body
}

// TestOversizeBody413: a body over MaxBodyBytes is refused with 413 on
// every JSON endpoint, not truncated into malformed JSON and a 400.
func TestOversizeBody413(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 16, Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)}})
	body := oversizeBody()
	for _, path := range []string{"/v1/price", "/v1/volcurve", "/v1/scenarios"} {
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

// TestVolCurveEndpoint runs the use case on a quoted chain and checks
// the recovered smile is a plausible volatility curve.
func TestVolCurveEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64})
	before := metricValue(t, hs.URL, "binopt_solver_pricings_total")
	req := VolCurveRequest{Quotes: chainQuotes(t, 64, 32, 11)}
	resp, body := postJSON(t, hs.URL+"/v1/volcurve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var vr VolCurveResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(vr.Points)+vr.Skipped != 32 {
		t.Fatalf("points %d + skipped %d != 32", len(vr.Points), vr.Skipped)
	}
	for _, p := range vr.Points {
		if p.Implied <= 0 || p.Implied > 2 {
			t.Errorf("implausible implied vol %v at strike %v", p.Implied, p.Strike)
		}
	}

	// binopt_solver_pricings_total counts lattice evaluations: exactly
	// what per-quote Brent spends on the same quotes.
	quotes, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lattice.NewEngine(64)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	count := func(o option.Option) (float64, error) {
		want++
		return eng.Price(o)
	}
	for _, q := range quotes {
		// A quote without a volatility still spends its pricings.
		_, _ = volatility.Brent(q.Price, q.Option, count)
	}
	if got := metricValue(t, hs.URL, "binopt_solver_pricings_total") - before; got != float64(want) {
		t.Errorf("binopt_solver_pricings_total rose by %v over one curve, per-quote Brent prices %d times", got, want)
	}

	resp, _ = postJSON(t, hs.URL+"/v1/volcurve", VolCurveRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty volcurve request: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/v1/volcurve", map[string]int{"n": 16, "seed": 7})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf(`{"n":16,"seed":7} with no quotes: status %d, want 400`, resp.StatusCode)
	}
}

// TestHealthzAndMetrics checks the observability surface.
func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health struct {
		Status   string `json:"status"`
		Backends []struct {
			Name          string  `json:"name"`
			Kind          string  `json:"kind"`
			OptionsPerSec float64 `json:"modelled_options_per_sec"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	// One shard per accel-registry platform: the paper's three plus the
	// self-registered embedded target.
	if health.Status != "ok" || len(health.Backends) != len(accel.Names()) {
		t.Fatalf("healthz = %+v, want ok with %d backends", health, len(accel.Names()))
	}
	for i, be := range health.Backends {
		if be.Name != accel.Names()[i] {
			t.Errorf("backend %d = %s, want registry order %v", i, be.Name, accel.Names())
		}
		if be.Kind == "" {
			t.Errorf("backend %s reports no kind", be.Name)
		}
		if be.OptionsPerSec <= 0 {
			t.Errorf("backend %s has no modelled throughput", be.Name)
		}
	}

	// Price two contracts, repeat one, then check the counters moved.
	c1 := Contract{Right: "put", Style: "american", Spot: 100, Strike: 95, Rate: 0.03, Sigma: 0.25, T: 1}
	c2 := c1
	c2.Strike = 105
	postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: []Contract{c1, c2}})
	postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: []Contract{c1}})

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	text := out.String()
	for _, want := range []string{
		"binopt_requests_total{endpoint=\"price\"} 2",
		"binopt_options_served_total 3",
		"binopt_options_priced_total 2",
		"binopt_cache_hits_total 1",
		"binopt_option_latency_seconds_bucket{le=\"+Inf\"} 2",
		"binopt_modelled_joules_per_option",
		"binopt_queue_depth 0",
		"binopt_batch_size_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestDuplicateContractsInOneRequest documents the in-flight semantics:
// duplicates inside one request are priced independently (the cache only
// serves completed results), then later requests hit.
func TestDuplicateContractsInOneRequest(t *testing.T) {
	s, _ := newTestServer(t, Config{Steps: 32})
	c := Contract{Right: "call", Style: "european", Spot: 100, Strike: 100, Rate: 0.01, Sigma: 0.2, T: 1}
	o, err := c.ToOption()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := s.PriceOptions(ctx, []option.Option{o, o})
	if err != nil {
		t.Fatalf("PriceOptions: %v", err)
	}
	if first[0].Cached || first[1].Cached {
		t.Fatalf("in-flight duplicates must not report cached: %+v", first)
	}
	if first[0].Price != first[1].Price {
		t.Fatalf("duplicate prices differ: %v vs %v", first[0].Price, first[1].Price)
	}
	again, err := s.PriceOptions(ctx, []option.Option{o})
	if err != nil {
		t.Fatalf("PriceOptions repeat: %v", err)
	}
	if !again[0].Cached || again[0].Price != first[0].Price {
		t.Fatalf("repeat should hit the cache with the same price: %+v", again[0])
	}
}

// TestNewRejectsShardWithoutEngine: every shard is a platform engine,
// so a BackendConfig without one is a configuration error, not a shard
// that prices some other way.
func TestNewRejectsShardWithoutEngine(t *testing.T) {
	_, err := New(Config{Steps: 16, Backends: []BackendConfig{
		testShard(t, "cpu-ref", 16, 1, 8),
		{Name: "bare", Workers: 1},
	}})
	if err == nil || !strings.Contains(err.Error(), `backend "bare" has no engine`) {
		t.Fatalf("New = %v, want an error naming the engine-less backend", err)
	}
}

// TestDefaultBackendsValidation: invalid tree depths are rejected with a
// clear error; valid depths yield one engine-backed shard per registry
// platform, in registry order.
func TestDefaultBackendsValidation(t *testing.T) {
	for _, steps := range []int{0, -1, -1024} {
		if _, err := DefaultBackends(steps); err == nil || !strings.Contains(err.Error(), "positive") {
			t.Errorf("DefaultBackends(%d) = %v, want a positive-steps error", steps, err)
		}
	}
	bs, err := DefaultBackends(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != len(accel.Names()) {
		t.Fatalf("got %d backends, want %d", len(bs), len(accel.Names()))
	}
	for i, bc := range bs {
		if bc.Name != accel.Names()[i] {
			t.Errorf("backend %d = %s, want %s", i, bc.Name, accel.Names()[i])
		}
		if bc.Engine == nil {
			t.Fatalf("backend %s has no platform engine", bc.Name)
		}
		if bc.Engine.Steps() != 64 {
			t.Errorf("backend %s engine depth = %d, want 64", bc.Name, bc.Engine.Steps())
		}
	}
}

// TestShardBatchMissPath: a request of distinct cache misses must reach
// its shard as one micro-batch and be priced through the engine's
// quad-interleaved batch path — bit-identical to the reference lattice,
// with the options visible in the batch-priced metric.
func TestShardBatchMissPath(t *testing.T) {
	const steps = 64
	s, _ := newTestServer(t, Config{Steps: steps, CacheSize: 256})

	base := option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: 90, Rate: 0.03, Div: 0.01, Sigma: 0.2, T: 0.5,
	}
	opts := make([]option.Option, 8)
	for i := range opts {
		o := base
		o.Strike = 90 + float64(i)
		opts[i] = o
	}
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.PriceBatch(opts, 0)
	if err != nil {
		t.Fatal(err)
	}

	res, err := s.PriceOptions(context.Background(), opts)
	if err != nil {
		t.Fatalf("PriceOptions: %v", err)
	}
	for i := range opts {
		if res[i].Cached {
			t.Errorf("option %d served from cache on first pass", i)
		}
		if res[i].Price != want[i] {
			t.Errorf("option %d: served %v, reference %v (must match bit-for-bit)", i, res[i].Price, want[i])
		}
	}
	if got := s.metrics.batchPriced.Load(); got != int64(len(opts)) {
		t.Errorf("batch-priced metric = %d, want %d (whole miss batch through the quad path)", got, len(opts))
	}
}
