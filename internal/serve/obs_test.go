package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"binopt/internal/faults"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

// obsContracts builds n distinct contracts (distinct strikes → no cache
// collisions).
func obsContracts(n int) []Contract {
	out := make([]Contract, n)
	for i := range out {
		out[i] = Contract{
			Right: "put", Style: "american",
			Spot: 100, Strike: 90 + float64(i), Rate: 0.03, Sigma: 0.2, T: 0.5,
		}
	}
	return out
}

// TestTraceparentAdoptedFromRemote: a forwarded request's traceparent
// parents every node-side span under the remote trace ID, and the
// response echoes the trace — on every endpoint behind the node edge.
func TestTraceparentAdoptedFromRemote(t *testing.T) {
	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, tc := range []struct {
		name, path string
		body       any
		// spans are the span names the request must export. For
		// /v1/price: handler, batch/queue/readback, and the worker's
		// device timeline.
		spans []string
	}{
		{"price", "/v1/price", PriceRequest{Contracts: obsContracts(2)},
			[]string{"POST /v1/price", "batch", "queue", "compute", "readback"}},
		{"volcurve", "/v1/volcurve", VolCurveRequest{N: 4, Seed: 1},
			[]string{"POST /v1/volcurve"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := newTestServer(t, Config{Steps: 32, Tracer: telemetry.New(512), CacheSize: -1})

			body, _ := json.Marshal(tc.body)
			req, _ := http.NewRequest(http.MethodPost, hs.URL+tc.path, bytes.NewReader(body))
			req.Header.Set("traceparent", "00-"+remoteTrace+"-00f067aa0ba902b7-01")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			echoed := resp.Header.Get("traceparent")
			if tr, _, ok := telemetry.ParseTraceParent(echoed); !ok || tr != remoteTrace {
				t.Errorf("response traceparent = %q, want trace %s", echoed, remoteTrace)
			}

			// Every span of the request carries the remote trace ID.
			sresp, err := http.Get(hs.URL + "/debug/spans")
			if err != nil {
				t.Fatal(err)
			}
			defer sresp.Body.Close()
			var ex telemetry.Export
			if err := json.NewDecoder(sresp.Body).Decode(&ex); err != nil {
				t.Fatal(err)
			}
			if len(ex.Spans) == 0 {
				t.Fatal("no spans exported")
			}
			names := map[string]bool{}
			for _, sp := range ex.Spans {
				if sp.Trace != remoteTrace {
					t.Errorf("span %q trace = %q, want %s", sp.Name, sp.Trace, remoteTrace)
				}
				names[sp.Name] = true
			}
			for _, want := range tc.spans {
				if !names[want] {
					t.Errorf("no %q span exported (have %v)", want, names)
				}
			}
			if ex.NowUnixNano == 0 {
				t.Error("export has no clock reading")
			}
		})
	}
}

// TestTraceMintedLocally: without a traceparent header the node mints a
// trace ID and a malformed header is ignored rather than adopted.
func TestTraceMintedLocally(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32, Tracer: telemetry.New(256), CacheSize: -1})

	body, _ := json.Marshal(PriceRequest{Contracts: obsContracts(1)})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/price", bytes.NewReader(body))
	req.Header.Set("traceparent", "garbage-header")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	trace, _, ok := telemetry.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("no valid traceparent echoed, got %q", resp.Header.Get("traceparent"))
	}
	if len(trace) != 32 || strings.Contains(trace, "garbage") {
		t.Errorf("minted trace = %q", trace)
	}
}

// TestServerTimingJoulesLedger: the per-request joules in Server-Timing
// sum across requests to the delta of binopt_modelled_joules_total, and
// the per-phase attribution telescopes to the same total.
func TestServerTimingJoulesLedger(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32, CacheSize: -1})

	scrapeJoules := func() (total float64, phases float64) {
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		reTotal := regexp.MustCompile(`(?m)^binopt_modelled_joules_total (\S+)$`)
		rePhase := regexp.MustCompile(`(?m)^binopt_phase_joules_total\{phase="\w+"\} (\S+)$`)
		mt := reTotal.FindStringSubmatch(string(raw))
		if mt == nil {
			t.Fatal("no binopt_modelled_joules_total in /metrics")
		}
		total = parseFloat(t, mt[1])
		for _, m := range rePhase.FindAllStringSubmatch(string(raw), -1) {
			phases += parseFloat(t, m[1])
		}
		return total, phases
	}

	before, _ := scrapeJoules()
	var ledger float64
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: obsContracts(4 + i)})
		bd, err := ParseServerTiming(resp.Header.Get("Server-Timing"))
		if err != nil {
			t.Fatalf("parsing Server-Timing: %v", err)
		}
		if bd.Joules <= 0 {
			t.Fatalf("request %d reported no joules: %+v", i, bd)
		}
		ledger += bd.Joules
	}
	after, phaseSum := scrapeJoules()

	delta := after - before
	if math.Abs(delta-ledger) > 1e-9*math.Max(1, math.Abs(delta)) {
		t.Errorf("Server-Timing joules sum %.12g != modelled_joules_total delta %.12g", ledger, delta)
	}
	// The per-phase attribution telescopes to the booked total.
	if math.Abs(phaseSum-after) > 1e-9*math.Max(1, math.Abs(after)) {
		t.Errorf("phase joules sum %.12g != booked total %.12g", phaseSum, after)
	}
}

// TestJoulesLedgerProperty: however requests are cut and wherever
// failover lands their options, the node's binopt_modelled_joules_total
// moves by exactly what the shards' engines booked, and so does the sum
// of the results' modelled_joules. Concurrent clients send /v1/price
// requests of random sizes, some contracts repeated so cache hits mix
// in, over the default mixed pool: once clean, and once with the
// cheapest shard failing half its submissions.
func TestJoulesLedgerProperty(t *testing.T) {
	for _, spec := range []string{"", "fpga-ivb:err=0.5"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("faults=%q/seed=%d", spec, seed), func(t *testing.T) {
				checkJoulesLedger(t, spec, seed)
			})
		}
	}
}

func checkJoulesLedger(t *testing.T, spec string, seed int64) {
	s, hs := newTestServer(t, Config{Steps: 16, CacheSize: 1024})
	inj, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, len(s.backends))
	for i, be := range s.backends {
		before[i] = be.cfg.Engine.ModelledJoules()
		if h := inj.HookFor(be.cfg.Name); h != nil {
			be.cfg.Engine.SetFaultHook(h)
		}
	}
	nodeBefore := s.metrics.modelledJoules.load()

	const clients, perClient = 4, 8
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]PriceRequest, clients*perClient)
	for i := range reqs {
		reqs[i].Contracts = make([]Contract, 1+rng.Intn(48))
		for k := range reqs[i].Contracts {
			reqs[i].Contracts[k] = FromOption(testOption(rng.Intn(300)))
		}
	}
	var mu sync.Mutex
	var resultJoules float64
	var retries int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := c; r < len(reqs); r += clients {
				body, err := json.Marshal(reqs[r])
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(hs.URL+"/v1/price", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var pr PriceResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: HTTP %d: %v", r, resp.StatusCode, err)
					return
				}
				mu.Lock()
				for _, res := range pr.Results {
					resultJoules += res.ModelledJoules
					retries += res.Retries
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	var booked float64
	for i, be := range s.backends {
		booked += be.cfg.Engine.ModelledJoules() - before[i]
	}
	node := s.metrics.modelledJoules.load() - nodeBefore
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if !(booked > 0) {
		t.Fatalf("engines booked %v J", booked)
	}
	if !same(node, booked) {
		t.Errorf("binopt_modelled_joules_total moved %.12g J, engines booked %.12g J", node, booked)
	}
	if !same(resultJoules, booked) {
		t.Errorf("results carry %.12g J, engines booked %.12g J", resultJoules, booked)
	}
	if spec != "" && retries == 0 {
		t.Error("no result was retried: the fault hook never fired")
	}
}

// TestDebugSpansCursor: /debug/spans pages with a cursor and never
// re-delivers.
func TestDebugSpansCursor(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 32, Tracer: telemetry.New(512), CacheSize: -1, Node: "node7"})

	get := func(url string) telemetry.Export {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ex telemetry.Export
		if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
			t.Fatal(err)
		}
		return ex
	}

	postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: obsContracts(2)})
	first := get(hs.URL + "/debug/spans")
	if len(first.Spans) == 0 || first.Node != "node7" {
		t.Fatalf("first page = %+v", first)
	}
	second := get(hs.URL + "/debug/spans?cursor=" + strconv.FormatUint(first.Next, 10))
	if len(second.Spans) != 0 {
		t.Errorf("cursor re-delivered %d spans", len(second.Spans))
	}

	resp, err := http.Get(hs.URL + "/debug/spans?cursor=banana")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor → status %d, want 400", resp.StatusCode)
	}
}

// TestDebugSLOAndHealthz: the SLO report is served on /debug/slo, folded
// into /healthz with the clock reading the fleet aggregator needs, and
// absent (but healthy) when no monitor is configured.
func TestDebugSLOAndHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Steps: 32, CacheSize: -1, Node: "node0",
		SLO: &slo.Options{LatencyThreshold: 5 * time.Second},
	})

	postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: obsContracts(1)})

	resp, err := http.Get(hs.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rep.Healthy || rep.Requests != 1 || len(rep.Objectives) != 2 {
		t.Errorf("slo report = %+v", rep)
	}

	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("status = %v", health["status"])
	}
	if health["node"] != "node0" {
		t.Errorf("node = %v", health["node"])
	}
	if now, _ := health["now_unix_nano"].(float64); now == 0 {
		t.Error("healthz has no now_unix_nano")
	}
	if _, ok := health["slo"]; !ok {
		t.Error("healthz has no slo section")
	}

	// No monitor: /debug/slo still serves a healthy zero report.
	_, hs2 := newTestServer(t, Config{Steps: 32, CacheSize: -1})
	resp2, err := http.Get(hs2.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep2 slo.Report
	if err := json.NewDecoder(resp2.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !rep2.Healthy || len(rep2.Objectives) != 0 {
		t.Errorf("disabled slo report = %+v", rep2)
	}
}

// TestSLOBurnSurfacesOnHealthz: a latency storm flips /healthz status to
// "burning" while the HTTP code stays 200.
func TestSLOBurnSurfacesOnHealthz(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	s, hs := newTestServer(t, Config{
		Steps: 32, CacheSize: -1,
		SLO: &slo.Options{
			LatencyThreshold: time.Nanosecond, // everything is slow
			FastWindow:       2 * time.Second,
			SlowWindow:       10 * time.Second,
			Now:              func() time.Time { return clock },
		},
	})
	for i := 0; i < 20; i++ {
		s.slomon.Observe(time.Second, false)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("burning healthz status code = %d, want 200", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "burning" {
		t.Errorf("status = %v, want burning", health["status"])
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}
