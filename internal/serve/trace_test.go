package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"binopt/internal/option"
	"binopt/internal/telemetry"
)

// traceDoc is the subset of the Chrome trace-event schema the tests
// assert on.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func getTrace(t *testing.T, url string) traceDoc {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type = %q", ct)
	}
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

// TestDebugTraceEndToEnd drives real requests through the HTTP server
// and checks /debug/trace returns a Chrome trace that decomposes the
// priced options into all four host phases plus the modelled device
// timeline of their batch submission, all stitched to the request by a
// shared req group.
func TestDebugTraceEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64, Tracer: telemetry.New(4096)})

	req := PriceRequest{Contracts: []Contract{
		{Right: "put", Style: "american", Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5},
		{Right: "call", Style: "european", Spot: 100, Strike: 95, Rate: 0.03, Sigma: 0.25, T: 1},
	}}
	resp, _ := postJSON(t, hs.URL+"/v1/price", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("price status %d", resp.StatusCode)
	}

	doc := getTrace(t, hs.URL+"/debug/trace")
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// Every complete event carries a clock, and both clocks appear.
	names := map[string]int{}
	clocks := map[string]int{}
	reqGroups := map[string]bool{}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		names[ev.Name]++
		clock, _ := ev.Args["clock"].(string)
		clocks[clock]++
		if clock == "" {
			t.Errorf("event %q has no clock arg", ev.Name)
		}
		if clock == "device" && !strings.HasPrefix(procs[ev.Pid], "device:") {
			t.Errorf("device-clock event %q on process %q", ev.Name, procs[ev.Pid])
		}
		if r, ok := ev.Args["req"]; ok {
			t.Logf("event %q req %v", ev.Name, r)
			reqGroups[ev.Name] = true
		}
	}
	for _, phase := range []string{"batch", "queue", "compute", "readback"} {
		if names[phase] == 0 {
			t.Errorf("no %q span in trace (have %v)", phase, names)
		}
	}
	if names["POST /v1/price"] == 0 {
		t.Error("no request span in trace")
	}
	if names["submission"] == 0 {
		t.Error("no device-clock submission span in trace")
	}
	if clocks["wall"] == 0 || clocks["device"] == 0 {
		t.Errorf("clock coverage = %v, want both wall and device", clocks)
	}
	for _, phase := range []string{"POST /v1/price", "batch", "queue", "compute", "readback"} {
		if !reqGroups[phase] {
			t.Errorf("span %q not stitched to a req group", phase)
		}
	}

	// ?reset=1 snapshots then clears the ring.
	getTrace(t, hs.URL+"/debug/trace?reset=1")
	doc = getTrace(t, hs.URL+"/debug/trace")
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			t.Fatalf("ring not cleared by reset: %q survived", ev.Name)
		}
	}
}

// TestTraceDisabledByDefault: without a tracer the endpoint does not
// exist and pricing emits nothing.
func TestTraceDisabledByDefault(t *testing.T) {
	s, hs := newTestServer(t, Config{Steps: 64})
	if s.Tracer().Enabled() {
		t.Fatal("tracer enabled without config")
	}
	resp, err := http.Get(hs.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/trace without tracer: status %d, want 404", resp.StatusCode)
	}
}

// TestPhaseSumWithinLatency: the four phases telescope — per request
// their sum equals the summed per-option end-to-end latency, so it can
// never exceed priced×(wall time of the call).
func TestPhaseSumWithinLatency(t *testing.T) {
	s, _ := newTestServer(t, Config{Steps: 64, Tracer: telemetry.New(1024), CacheSize: -1})

	opts := make([]option.Option, 8)
	for i := range opts {
		opts[i] = option.Option{
			Right: option.Put, Style: option.American,
			Spot: 100, Strike: 90 + float64(i), Rate: 0.03, Sigma: 0.2, T: 0.5,
		}
	}
	t0 := time.Now()
	_, phases, err := s.PriceOptionsTimed(context.Background(), opts)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if phases.Priced != len(opts) {
		t.Fatalf("priced %d options, want %d", phases.Priced, len(opts))
	}
	sum := phases.Batch + phases.Queue + phases.Compute + phases.Readback
	if sum <= 0 {
		t.Fatalf("phase sum %v, want > 0 (breakdown %+v)", sum, phases)
	}
	if limit := time.Duration(len(opts)) * elapsed; sum > limit {
		t.Errorf("phase sum %v exceeds priced×elapsed %v — phases do not telescope", sum, limit)
	}
	if phases.Compute <= 0 {
		t.Errorf("compute phase empty: %+v", phases)
	}
}

// TestServerTimingHeader: the HTTP response carries the phase breakdown
// in a Server-Timing header and the loadgen parser recovers it.
func TestServerTimingHeader(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64, Tracer: telemetry.New(1024), CacheSize: -1})

	c := Contract{Right: "put", Style: "american", Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}
	resp, _ := postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: []Contract{c}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	header := resp.Header.Get("Server-Timing")
	if header == "" {
		t.Fatal("no Server-Timing header")
	}
	for _, metric := range []string{"batch;dur=", "queue;dur=", "compute;dur=", "readback;dur=", "priced;dur=", "joules;dur="} {
		if !strings.Contains(header, metric) {
			t.Errorf("Server-Timing %q missing %q", header, metric)
		}
	}
	got, _ := parseServerTiming(header)
	if got.priced != 1 {
		t.Errorf("parsed priced = %d from %q", got.priced, header)
	}
	if got.batch+got.queue+got.compute+got.readback <= 0 {
		t.Errorf("parsed empty phase sums from %q", header)
	}
	if got.joules <= 0 {
		t.Errorf("parsed no joules from %q", header)
	}
}

// TestParseServerTiming covers the parser against hand-built, foreign
// and malformed headers — loadgen must never crash on a proxy-mangled
// one, and must keep working against servers that add metrics it
// doesn't know (or lack ones it does).
func TestParseServerTiming(t *testing.T) {
	cases := []struct {
		name   string
		header string
		want   phaseSums
		wantN  int
	}{
		{
			name:   "full header",
			header: "batch;dur=1.500, queue;dur=0.250, compute;dur=10.000, readback;dur=0.125, priced;dur=4, joules;dur=0.0625",
			want: phaseSums{
				batch: 1500 * time.Microsecond, queue: 250 * time.Microsecond,
				compute: 10 * time.Millisecond, readback: 125 * time.Microsecond,
				priced: 4, joules: 0.0625,
			},
			wantN: 6,
		},
		{
			name:   "pre-joules server",
			header: "batch;dur=1, queue;dur=1, compute;dur=1, readback;dur=1, priced;dur=2",
			want: phaseSums{
				batch: time.Millisecond, queue: time.Millisecond,
				compute: time.Millisecond, readback: time.Millisecond, priced: 2,
			},
			wantN: 5,
		},
		{
			name:   "unknown metrics and extra params tolerated",
			header: `cdn;desc="edge cache";dur=3, compute;desc=fpga;dur=10, gc;dur=0.1, joules;dur=0.5`,
			want:   phaseSums{compute: 10 * time.Millisecond, joules: 0.5},
			wantN:  2,
		},
		{
			name:   "whitespace and reordered dur param",
			header: "  batch ; desc=x ; dur= 2.0 ,joules;dur=1e-3",
			want:   phaseSums{batch: 2 * time.Millisecond, joules: 1e-3},
			wantN:  2,
		},
		{name: "empty", header: "", wantN: 0},
		{name: "garbage", header: "garbage", wantN: 0},
		{name: "no dur params", header: "a=b;c=d, batch;desc=x", wantN: 0},
		{name: "malformed dur value skipped", header: "batch;dur=abc, queue;dur=0.5", want: phaseSums{queue: 500 * time.Microsecond}, wantN: 1},
		{name: "truncated entry", header: "batch;dur=1.5, compute;du", want: phaseSums{batch: 1500 * time.Microsecond}, wantN: 1},
		{name: "dangling separators", header: ",,;;dur=,batch;dur=1", want: phaseSums{batch: time.Millisecond}, wantN: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, n := parseServerTiming(c.header)
			if got != c.want {
				t.Errorf("parseServerTiming(%q) = %+v, want %+v", c.header, got, c.want)
			}
			if n != c.wantN {
				t.Errorf("recognised %d entries in %q, want %d", n, c.header, c.wantN)
			}
			bd, err := ParseServerTiming(c.header)
			if c.wantN == 0 {
				if err == nil {
					t.Errorf("ParseServerTiming(%q) accepted a header with no recognised metrics", c.header)
				}
			} else if err != nil {
				t.Errorf("ParseServerTiming(%q) rejected a parseable header: %v", c.header, err)
			} else if bd.Joules != c.want.joules || bd.Priced != int(c.want.priced) {
				t.Errorf("ParseServerTiming(%q) = %+v, want joules %v priced %d", c.header, bd, c.want.joules, c.want.priced)
			}
		})
	}
}

// TestRateWindow drives the sliding throughput window with a synthetic
// clock: steady load reports the true rate, and the figure decays to
// zero within the window after load stops.
func TestRateWindow(t *testing.T) {
	var w rateWindow
	uptime := time.Hour // not the limiting factor here

	// 100 options/s for 20 seconds; the window only sees the last 10.
	var now int64 = 1000
	for s := int64(0); s < 20; s++ {
		w.add(now+s, 100)
	}
	now += 19
	if got := w.rate(now, uptime); got != 100 {
		t.Errorf("steady rate = %v, want 100", got)
	}

	// Idle for 5 seconds: half the window has drained.
	if got := w.rate(now+5, uptime); got != 50 {
		t.Errorf("rate after 5s idle = %v, want 50", got)
	}
	// Idle past the window: fully decayed.
	if got := w.rate(now+10, uptime); got != 0 {
		t.Errorf("rate after 10s idle = %v, want 0", got)
	}

	// A young server divides by its uptime, not the window.
	var fresh rateWindow
	fresh.add(now, 300)
	if got := fresh.rate(now, 3*time.Second); got != 100 {
		t.Errorf("young-server rate = %v, want 100", got)
	}
	// ...but never by less than one second.
	if got := fresh.rate(now, 100*time.Millisecond); got != 300 {
		t.Errorf("sub-second uptime rate = %v, want 300", got)
	}
}

// TestMetricsExposeObservability: after traced traffic, /metrics renders
// the phase quantiles, the windowed rate, the modelled device seconds
// and the span accounting.
func TestMetricsExposeObservability(t *testing.T) {
	_, hs := newTestServer(t, Config{Steps: 64, Tracer: telemetry.New(1024), CacheSize: -1})

	c := Contract{Right: "put", Style: "american", Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}
	resp, _ := postJSON(t, hs.URL+"/v1/price", PriceRequest{Contracts: []Contract{c}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, line := range []string{
		`binopt_phase_seconds_bucket{phase="batch",le="+Inf"}`,
		`binopt_phase_seconds_bucket{phase="queue",le="5e-05"}`,
		`binopt_phase_seconds_sum{phase="compute"}`,
		`binopt_phase_seconds_count{phase="readback"}`,
		`binopt_phase_joules_total{phase="compute"}`,
		`binopt_option_latency_seconds_bucket{le="+Inf"} 1`,
		`binopt_request_joules_count 1`,
		`# {trace_id="`,
		"binopt_options_per_sec_window",
		"binopt_backend_modelled_device_seconds_total",
		"binopt_trace_spans_total",
		"binopt_trace_spans_dropped_total",
		"binopt_trace_spans_retained",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// metricValue scrapes one unlabelled counter from /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestDefaultConfigTracedBatchPath: a server with the shipped defaults
// — tracer on, DefaultBackends — prices every cache miss through the
// engines' quad batch path, singletons included, and its trace shows
// one device-clock submission per shard batch plus one batch/queue/
// readback span per request.
func TestDefaultConfigTracedBatchPath(t *testing.T) {
	s, hs := newTestServer(t, Config{Steps: 64, Tracer: telemetry.New(4096)})

	const metric = "binopt_batch_priced_options_total"
	reqSizes := map[float64]int{} // request span ID → contracts
	for _, n := range []int{10, 1} {
		req := PriceRequest{Contracts: make([]Contract, n)}
		for i := range req.Contracts {
			req.Contracts[i] = FromOption(option.Option{
				Right: option.Put, Style: option.American,
				Spot: 100, Strike: 80 + float64(len(reqSizes)*20+i), Rate: 0.03, Sigma: 0.2, T: 0.5,
			})
		}
		before := metricValue(t, hs.URL, metric)
		resp, _ := postJSON(t, hs.URL+"/v1/price", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d contracts: status %d", n, resp.StatusCode)
		}
		if got := metricValue(t, hs.URL, metric) - before; got != float64(n) {
			t.Errorf("%d-contract request raised %s by %v, want %d", n, metric, got, n)
		}
		_, span, ok := telemetry.ParseTraceParent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("no traceparent on the %d-contract response", n)
		}
		reqSizes[float64(span)] = n
	}

	doc := getTrace(t, hs.URL+"/debug/trace")
	submissions, submitted := 0, 0.0
	phases := map[string]map[float64]float64{} // phase → req → options
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "submission":
			if clock, _ := ev.Args["clock"].(string); clock != "device" {
				t.Errorf("submission span on the %q clock", clock)
			}
			opts, _ := ev.Args["options"].(float64)
			groups, ok := ev.Args["quad_groups"].(float64)
			if !ok || groups != float64((int(opts)+3)/4) {
				t.Errorf("submission of %v options has quad_groups %v", opts, ev.Args["quad_groups"])
			}
			submissions++
			submitted += opts
		case "batch", "queue", "readback":
			if phases[ev.Name] == nil {
				phases[ev.Name] = map[float64]float64{}
			}
			req, _ := ev.Args["req"].(float64)
			if _, dup := phases[ev.Name][req]; dup {
				t.Errorf("request %v has more than one %q span", req, ev.Name)
			}
			phases[ev.Name][req], _ = ev.Args["options"].(float64)
		}
	}
	if batches := s.metrics.batchSize.Count(); submissions != int(batches) {
		t.Errorf("%d device submission spans for %d dispatched batches", submissions, batches)
	}
	if submitted != 11 {
		t.Errorf("submission spans cover %v options, want 11", submitted)
	}
	for _, name := range []string{"batch", "queue", "readback"} {
		for req, n := range reqSizes {
			if got, ok := phases[name][req]; !ok || got != float64(n) {
				t.Errorf("request %v: %q span covers %v options (present %v), want %d", req, name, got, ok, n)
			}
		}
	}
}
