package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/slo"
	"binopt/internal/volatility"
	"binopt/internal/workload"
)

// postVolCurve posts one curve request and decodes a 200 answer.
func postVolCurve(t *testing.T, url string, req any) VolCurveResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/volcurve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got VolCurveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// chainQuotes is a DefaultVolCurveSpec chain of n puts quoted on a
// reference lattice at steps, with the rate lowered to 1%: at 3% the
// floor pricing at VolMin leaves the CRR feasibility bound below about
// 18 steps, and placementPool's engines run at 16.
func chainQuotes(t *testing.T, steps, n int, seed int64) []QuoteJSON {
	t.Helper()
	spec := workload.DefaultVolCurveSpec(seed)
	spec.N, spec.Rate = n, 0.01
	chain, err := workload.Chain(spec)
	if err != nil {
		t.Fatal(err)
	}
	quotes, err := workload.ReferenceQuotes(chain, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]QuoteJSON, len(quotes))
	for i, q := range quotes {
		out[i] = QuoteJSON{Contract: FromOption(q.Option), Price: q.Price}
	}
	return out
}

// refCurve solves req's quotes on a reference lattice, returning the
// points, the skipped count and the pricings per-quote Brent spends on
// the same quotes.
func refCurve(t *testing.T, steps int, req VolCurveRequest) ([]volatility.CurvePoint, int, int64) {
	t.Helper()
	quotes, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	points, skipped, err := volatility.Curve(quotes, func(opts []option.Option) ([]float64, error) {
		return ref.PriceBatch(opts, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var pricings int64
	count := func(o option.Option) (float64, error) {
		pricings++
		return ref.Price(o)
	}
	for _, q := range quotes {
		// A quote without a volatility still spends its pricings.
		_, _ = volatility.Brent(q.Price, q.Option, count)
	}
	return points, skipped, pricings
}

// sameCurve reports whether a served curve equals the reference bit for
// bit (JSON renders each float64 in its shortest round-trip form, so a
// decoded float has the bits the server sent).
func sameCurve(t *testing.T, got VolCurveResponse, want []volatility.CurvePoint, skipped int) {
	t.Helper()
	if got.Skipped != skipped || len(got.Points) != len(want) {
		t.Fatalf("served %d points, %d skipped; reference %d points, %d skipped",
			len(got.Points), got.Skipped, len(want), skipped)
	}
	for i, p := range got.Points {
		w := want[i]
		if math.Float64bits(p.Strike) != math.Float64bits(w.Strike) ||
			math.Float64bits(p.Moneyness) != math.Float64bits(w.Mny) ||
			math.Float64bits(p.Implied) != math.Float64bits(w.Implied) {
			t.Fatalf("point %d: served %+v, reference %+v", i, p, w)
		}
	}
}

// TestVolCurveOnShards: every round of a served curve runs on the
// shards, so the curve is bit-identical to the lock-step solve over a
// reference lattice, the shards' priced counts move by exactly the
// pricings per-quote Brent spends — and so does
// binopt_solver_pricings_total — and the engines' booked joules equal
// the response's modelled_joules and the solver joules counter. Every
// slot a round took is released.
func TestVolCurveOnShards(t *testing.T) {
	const steps = 64
	req := VolCurveRequest{Quotes: chainQuotes(t, steps, 240, 3)}
	s, hs := newTestServer(t, Config{Steps: steps, CacheSize: -1})
	want, skipped, pricings := refCurve(t, steps, req)

	pricedBefore := make([]int64, len(s.backends))
	joulesBefore := make([]float64, len(s.backends))
	for i, be := range s.backends {
		pricedBefore[i] = be.cfg.Engine.PricedOptions()
		joulesBefore[i] = be.cfg.Engine.ModelledJoules()
	}
	solverBefore := metricValue(t, hs.URL, "binopt_solver_pricings_total")
	solverJoulesBefore := s.metrics.solverJoules.load()

	got := postVolCurve(t, hs.URL, req)
	sameCurve(t, got, want, skipped)

	var priced int64
	var booked float64
	for i, be := range s.backends {
		priced += be.cfg.Engine.PricedOptions() - pricedBefore[i]
		booked += be.cfg.Engine.ModelledJoules() - joulesBefore[i]
		if in, p := be.inflight.Load(), be.pending.Load(); in != 0 || p != 0 {
			t.Errorf("%s holds %d slots and %d pending options after the curve", be.cfg.Name, in, p)
		}
	}
	if priced != pricings {
		t.Errorf("shards priced %d options, per-quote Brent prices %d", priced, pricings)
	}
	if solver := metricValue(t, hs.URL, "binopt_solver_pricings_total") - solverBefore; solver != float64(pricings) {
		t.Errorf("binopt_solver_pricings_total rose by %v, per-quote Brent prices %d", solver, pricings)
	}
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if !(booked > 0) || !same(got.ModelledJoules, booked) {
		t.Errorf("response carries %.12g J, engines booked %.12g J", got.ModelledJoules, booked)
	}
	if counter := s.metrics.solverJoules.load() - solverJoulesBefore; !same(counter, booked) {
		t.Errorf("binopt_solver_modelled_joules_total rose by %.12g J, engines booked %.12g J", counter, booked)
	}
}

// TestVolCurveCommittedBody: testdata/volcurve16.json, the body the
// README and the verification notes post, is a valid curve request
// (DefaultVolCurveSpec(7), 16 puts quoted on a 1024-step lattice), and
// the server answers it bit-identically to the lock-step solve over a
// reference lattice. A shallower server than the quotes' lattice keeps
// the test cheap; the curve is still a smile.
func TestVolCurveCommittedBody(t *testing.T) {
	const steps = 128
	body, err := os.ReadFile(filepath.Join("testdata", "volcurve16.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseVolCurveRequest(body, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Quotes) != 16 {
		t.Fatalf("committed body holds %d quotes, want 16", len(req.Quotes))
	}
	_, hs := newTestServer(t, Config{Steps: steps, CacheSize: -1})
	want, skipped, _ := refCurve(t, steps, req)
	sameCurve(t, postVolCurve(t, hs.URL, json.RawMessage(body)), want, skipped)
}

// TestVolCurveFailsOver: with the first-choice shard failing every
// submission, each round retries on another shard, so the curve still
// comes back bit-identical; every failure is booked against that
// shard's breaker and error counters and counted as a retry, and the
// failing engine prices nothing.
func TestVolCurveFailsOver(t *testing.T) {
	s, url, byCost := placementPool(t)
	first := byCost[0]
	first.cfg.Engine.SetFaultHook(func() error { return errors.New("injected fault") })
	req := VolCurveRequest{Quotes: chainQuotes(t, s.cfg.Steps, 48, 5)}
	want, skipped, _ := refCurve(t, s.cfg.Steps, req)
	firstPriced := first.cfg.Engine.PricedOptions() // the parity probe

	got := postVolCurve(t, url, req)
	sameCurve(t, got, want, skipped)

	errs := first.errs.Load()
	if errs == 0 {
		t.Fatalf("%s booked no failed attempt: the fault hook never fired", first.cfg.Name)
	}
	if r := s.metrics.retries.Load(); r != errs {
		t.Errorf("retries = %d, %s failed %d attempts", r, first.cfg.Name, errs)
	}
	if pe := s.metrics.priceErrors.Load(); pe != errs {
		t.Errorf("price errors = %d, %s failed %d attempts", pe, first.cfg.Name, errs)
	}
	first.breaker.mu.Lock()
	fails, opens := first.breaker.fails, first.breaker.opens
	first.breaker.mu.Unlock()
	if fails == 0 && opens == 0 {
		t.Errorf("%s breaker booked none of its %d failures", first.cfg.Name, errs)
	}
	if p := first.cfg.Engine.PricedOptions() - firstPriced; p != 0 {
		t.Errorf("failing engine %s priced %d options", first.cfg.Name, p)
	}
}

// TestVolCurveSaturated429: a curve round holds its shard slot while it
// runs and waits in the FIFO for one otherwise, so once held rounds
// claim every engine shard's workers and as many rounds again wait, the
// next curve gets 429 with Retry-After; the held and waiting curves
// finish.
func TestVolCurveSaturated429(t *testing.T) {
	s, url, byCost := placementPool(t)
	capacity := 0
	// Every round of every held curve sends once; the buffer is far
	// beyond capacity × the rounds of a 4-quote curve, so a released
	// hook never blocks on it.
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

	req := VolCurveRequest{Quotes: chainQuotes(t, s.cfg.Steps, 4, 1)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	statuses := make(chan int, 2*capacity)
	for i := 0; i < 2*capacity; i++ {
		go func() {
			resp, err := http.Post(url+"/v1/volcurve", "application/json", bytes.NewReader(body))
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
			t.Fatalf("a curve finished with status %d before all %d slots were held", st, capacity)
		}
	}
	for s.batcher.waitingRuns() < capacity {
		select {
		case st := <-statuses:
			t.Fatalf("a curve finished with status %d before %d more waited", st, capacity)
		case <-time.After(time.Millisecond):
		}
	}

	resp, out := postJSON(t, url+"/v1/volcurve", req)
	unblock()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d with every slot held, want 429: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	for i := 0; i < 2*capacity; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("held or waiting curve finished with status %d, want 200", st)
		}
	}
}

// TestVolCurveRoundAfterClose503: a curve whose first round is running
// when Close begins fails with 503 at its next round, instead of
// pricing on through the shutdown.
func TestVolCurveRoundAfterClose503(t *testing.T) {
	s, hs := newTestServer(t, Config{Steps: 32, CacheSize: -1,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 32, 1)}})
	g := newGate()
	defer g.open()
	s.backends[0].cfg.Engine.SetFaultHook(g.hook)

	req := VolCurveRequest{Quotes: chainQuotes(t, 32, 4, 1)}
	status := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post(hs.URL+"/v1/volcurve", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-g.entered // the first round holds the shard
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	g.open()
	if st := <-status; st != http.StatusServiceUnavailable {
		t.Errorf("curve with a round started after Close: status %d, want 503", st)
	}
}

// TestVolCurveInputBound413: a curve of more quotes than the queue
// depth is refused with 413 before anything is priced; one of exactly
// the depth is served.
func TestVolCurveInputBound413(t *testing.T) {
	const depth = 8
	s, hs := newTestServer(t, Config{Steps: 32, CacheSize: -1, QueueDepth: depth,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 32, 1)}})
	eng := s.backends[0].cfg.Engine
	quotes := make([]QuoteJSON, depth+1)
	for i := range quotes {
		quotes[i] = QuoteJSON{Contract: FromOption(testOption(i)), Price: 5}
	}
	for _, req := range []VolCurveRequest{{Quotes: chainQuotes(t, 32, depth+1, 1)}, {Quotes: quotes}} {
		before := eng.PricedOptions()
		resp, out := postJSON(t, hs.URL+"/v1/volcurve", req)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%d quotes: status %d, want 413: %s", len(req.Quotes), resp.StatusCode, out)
		}
		if moved := eng.PricedOptions() - before; moved != 0 {
			t.Errorf("%d quotes: refused curve priced %d options", len(req.Quotes), moved)
		}
	}
	if got := postVolCurve(t, hs.URL, VolCurveRequest{Quotes: chainQuotes(t, 32, depth, 1)}); len(got.Points)+got.Skipped != depth {
		t.Errorf("curve of depth %d: %d points + %d skipped", depth, len(got.Points), got.Skipped)
	}
}

// TestVolCurveErrorStatus: a quote no volatility explains is the
// client's fault — 400, no SLO booking — while a round no shard could
// price keeps its server-side 500 and spends error budget.
func TestVolCurveErrorStatus(t *testing.T) {
	put := func(strike, price float64) QuoteJSON {
		return QuoteJSON{Contract: Contract{
			Right: "put", Style: "american", Spot: 100, Strike: strike, Rate: 0.03, Sigma: 0.2, T: 0.5,
		}, Price: price}
	}
	for _, tc := range []struct {
		name       string
		quote      QuoteJSON
		shardFault bool
		status     int
		booked     int64
	}{
		{"put above strike", put(100, 150), false, http.StatusBadRequest, 0},
		{"below zero-vol floor", put(120, 15), false, http.StatusBadRequest, 0},
		{"not bracketed", put(100, 99), false, http.StatusBadRequest, 0},
		{"every shard fails", put(100, 5), true, http.StatusInternalServerError, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, hs := newTestServer(t, Config{Steps: 32, CacheSize: -1,
				SLO: &slo.Options{LatencyThreshold: 5 * time.Second}})
			if tc.shardFault {
				for _, be := range s.backends {
					be.cfg.Engine.SetFaultHook(func() error { return errors.New("injected fault") })
				}
			}
			resp, out := postJSON(t, hs.URL+"/v1/volcurve", VolCurveRequest{Quotes: []QuoteJSON{tc.quote}})
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.status, out)
			}
			if got := s.slomon.Report().Requests; got != tc.booked {
				t.Errorf("SLO monitor booked %d requests, want %d", got, tc.booked)
			}
		})
	}
}

// TestParseVolCurveRequest: the body grammar is one to limit quotes; a
// chain count without quotes is not a request.
func TestParseVolCurveRequest(t *testing.T) {
	for _, tc := range []struct {
		body     string
		tooLarge bool
		ok       bool
	}{
		{`{"quotes":[{"price":1}]}`, false, true},
		{`{"quotes":[{"price":1},{"price":1},{"price":1},{"price":1}],"n":99}`, false, true},
		{`{"quotes":[{},{},{},{},{}]}`, true, false},
		{`{"n":4}`, false, false},
		{`{"n":4,"seed":-9}`, false, false},
		{`{"n":5}`, false, false},
		{`{"quotes":[]}`, false, false},
		{`{}`, false, false},
		{`{"quotes":{}}`, false, false},
		{`{"quotes":[{"price":1}]} trailing`, false, false},
	} {
		_, err := ParseVolCurveRequest([]byte(tc.body), 4)
		if (err == nil) != tc.ok || errors.Is(err, ErrBatchTooLarge) != tc.tooLarge {
			t.Errorf("%s: err = %v, want ok=%t tooLarge=%t", tc.body, err, tc.ok, tc.tooLarge)
		}
	}
}
