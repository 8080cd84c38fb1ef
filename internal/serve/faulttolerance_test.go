package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"binopt/internal/accel"
	"binopt/internal/faults"
	"binopt/internal/option"
	"binopt/internal/workload"
)

// faultyPrice wraps a pricing kernel with an injector hook, the same
// composition pricesrvd arms on real engines.
func faultyPrice(hook func() error, kernel func(option.Option) (float64, error)) func(option.Option) (float64, error) {
	return func(o option.Option) (float64, error) {
		if err := hook(); err != nil {
			return 0, err
		}
		return kernel(o)
	}
}

// TestFailoverAbsorbsShardFaults is the acceptance scenario: one shard
// of a two-shard pool fails 20% of its pricings, and the paper's
// 2000-put chain must still complete with zero client-visible errors
// and prices bit-identical to the healthy kernel, with the outage
// observable — retries counted, the flaky shard's breaker open on
// /healthz and /metrics, and the modelled drain rate behind Retry-After
// excluding the shard being routed around.
func TestFailoverAbsorbsShardFaults(t *testing.T) {
	inj, err := faults.Parse("flaky:err=0.2", 7)
	if err != nil {
		t.Fatalf("faults.Parse: %v", err)
	}
	s, hs := newTestServer(t, Config{
		Steps: 16, QueueDepth: 4096, CacheSize: -1,
		Backends: []BackendConfig{
			// The flaky shard advertises the higher modelled rate, so the
			// dispatcher prefers it until its breaker opens — faults are
			// guaranteed to be exercised, not routed around by luck.
			{Name: "flaky", Estimate: stubEstimate(100000), Workers: 2,
				PriceFunc: faultyPrice(inj.HookFor("flaky"), stubPrice)},
			{Name: "healthy", Estimate: stubEstimate(1000), Workers: 2, PriceFunc: stubPrice},
		},
		// Once open the breaker must stay open through the post-run
		// assertions below.
		Breaker: BreakerConfig{Cooldown: time.Hour},
	})

	chain, err := workload.Chain(workload.DefaultVolCurveSpec(7))
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	results, err := s.PriceOptions(context.Background(), chain)
	if err != nil {
		t.Fatalf("PriceOptions under 20%% shard faults: %v", err)
	}

	var retries int64
	for i, r := range results {
		want, _ := stubPrice(chain[i])
		if r.Price != want {
			t.Fatalf("option %d: price %v, want %v (failover must be numerically invisible)", i, r.Price, want)
		}
		retries += int64(r.Retries)
	}
	if retries == 0 {
		t.Fatal("no retries recorded: the injected faults never fired or failover never ran")
	}
	if got := s.metrics.retries.Load(); got != retries {
		t.Fatalf("metrics retries = %d, per-result sum = %d", got, retries)
	}
	if s.metrics.priceErrors.Load() == 0 {
		t.Fatal("no price errors metered despite injected faults")
	}
	if n := s.QueueDepth(); n != 0 {
		t.Fatalf("queue depth %d after completion, want 0 (admission leak)", n)
	}

	// The flaky shard's breaker is open: 20% windowed error rate is well
	// past the 10% default threshold.
	var flakyStat *breakerStat
	for _, bs := range s.breakerStats() {
		if bs.backend == "flaky" {
			b := bs
			flakyStat = &b
		}
	}
	if flakyStat == nil || flakyStat.state != breakerOpen || flakyStat.opens == 0 {
		t.Fatalf("flaky breaker = %+v, want open with opens > 0", flakyStat)
	}

	// Retry-After honesty: the open shard's modelled rate is excluded.
	if rate := s.aggregateRate(); rate != 1000 {
		t.Fatalf("aggregateRate = %v, want 1000 (healthy only; flaky is open)", rate)
	}

	// /healthz: per-shard breaker state plus the degraded pool status.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200: degraded is not down", resp.StatusCode)
	}
	var health struct {
		Status   string `json:"status"`
		Backends []struct {
			Name         string `json:"name"`
			Breaker      string `json:"breaker"`
			BreakerOpens int64  `json:"breaker_opens"`
			PriceErrors  int64  `json:"price_errors"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if health.Status != "degraded" {
		t.Fatalf("healthz status %q, want \"degraded\" while a breaker is open", health.Status)
	}
	found := false
	for _, be := range health.Backends {
		switch be.Name {
		case "flaky":
			found = true
			if be.Breaker != "open" || be.BreakerOpens == 0 || be.PriceErrors == 0 {
				t.Fatalf("flaky health = %+v, want open breaker with errors metered", be)
			}
		case "healthy":
			if be.Breaker != "closed" {
				t.Fatalf("healthy shard breaker %q, want closed", be.Breaker)
			}
		}
	}
	if !found {
		t.Fatal("healthz missing the flaky backend")
	}

	// /metrics: the error-path counters and breaker gauges.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		fmt.Sprintf("binopt_retries_total %d\n", retries),
		"binopt_breaker_state{backend=\"flaky\"} 1\n",
		"binopt_breaker_state{backend=\"healthy\"} 0\n",
		"binopt_backend_price_errors_total{backend=\"flaky\"}",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "binopt_price_errors_total 0\n") {
		t.Error("binopt_price_errors_total still zero despite injected faults")
	}
}

// TestExhaustedAttemptsDrainSiblings is the regression for the brittle
// error path: when one contract's attempts are exhausted, the request
// must still drain every sibling's result — observing their phases —
// and the error must name the failing contract index.
func TestExhaustedAttemptsDrainSiblings(t *testing.T) {
	const poisoned = 5
	poison := testOption(poisoned)
	kernel := func(o option.Option) (float64, error) {
		if o.Strike == poison.Strike {
			return 0, errors.New("poisoned contract")
		}
		return stubPrice(o)
	}
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 256, CacheSize: -1, MaxAttempts: 1,
		Backends: []BackendConfig{
			{Name: "stub", Estimate: stubEstimate(1000), Workers: 2, PriceFunc: kernel},
		},
	})

	opts := make([]option.Option, 8)
	for i := range opts {
		opts[i] = testOption(i)
	}
	_, phases, err := s.PriceOptionsTimed(context.Background(), opts)
	if err == nil {
		t.Fatal("want the poisoned contract's error")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("contract %d", poisoned)) {
		t.Fatalf("error %q does not name contract %d", err, poisoned)
	}
	if !strings.Contains(err.Error(), "poisoned contract") {
		t.Fatalf("error %q lost the kernel's cause", err)
	}
	// Every sibling was drained and observed, not abandoned in flight.
	if phases.Priced != len(opts)-1 {
		t.Fatalf("phases observed %d options, want %d (siblings must drain)", phases.Priced, len(opts)-1)
	}
	if got := s.metrics.optionsPriced.Load(); got != int64(len(opts)-1) {
		t.Fatalf("metrics priced %d options, want %d", got, len(opts)-1)
	}
	if n := s.QueueDepth(); n != 0 {
		t.Fatalf("queue depth %d after failed request, want 0", n)
	}
}

// TestRetryRecomputesOnSecondShard pins the failover mechanics: a shard
// that always fails hands its jobs to the healthy shard, the result
// carries the retry count and the shard that actually priced it.
func TestRetryRecomputesOnSecondShard(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 64, CacheSize: -1,
		Backends: []BackendConfig{
			{Name: "dead", Estimate: stubEstimate(100000), Workers: 1,
				PriceFunc: func(option.Option) (float64, error) { return 0, errors.New("dead shard") }},
			{Name: "alive", Estimate: stubEstimate(100), Workers: 1, PriceFunc: stubPrice},
		},
		Breaker: BreakerConfig{Cooldown: time.Hour},
	})

	o := testOption(1)
	res, err := s.PriceOptions(context.Background(), []option.Option{o})
	if err != nil {
		t.Fatalf("PriceOptions: %v", err)
	}
	want, _ := stubPrice(o)
	if res[0].Price != want {
		t.Fatalf("price %v, want %v", res[0].Price, want)
	}
	if res[0].Backend != "alive" {
		t.Fatalf("priced on %q, want the failover shard \"alive\"", res[0].Backend)
	}
	if res[0].Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", res[0].Retries)
	}
}

// TestAttemptBudgetExhaustsAcrossShards: with every shard dead, the
// error reaches the client only after MaxAttempts distinct tries.
func TestAttemptBudgetExhaustsAcrossShards(t *testing.T) {
	attempts := make(chan string, 16)
	dead := func(name string) func(option.Option) (float64, error) {
		return func(option.Option) (float64, error) {
			attempts <- name
			return 0, errors.New("outage")
		}
	}
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 64, CacheSize: -1, MaxAttempts: 3,
		Backends: []BackendConfig{
			{Name: "a", Estimate: stubEstimate(1000), Workers: 1, PriceFunc: dead("a")},
			{Name: "b", Estimate: stubEstimate(1000), Workers: 1, PriceFunc: dead("b")},
		},
	})

	_, err := s.PriceOptions(context.Background(), []option.Option{testOption(1)})
	if err == nil {
		t.Fatal("want an error once every attempt is exhausted")
	}
	if !strings.Contains(err.Error(), "3 attempt(s) failed") {
		t.Fatalf("error %q does not report the exhausted attempt budget", err)
	}
	close(attempts)
	var n int
	for range attempts {
		n++
	}
	if n != 3 {
		t.Fatalf("kernel ran %d times, want exactly MaxAttempts=3", n)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d, want 0", d)
	}
}

// TestFailedSingletonDrawsHookOnce: a one-job batch whose submission
// fails goes straight to failover. There is nothing to isolate, and
// re-running the job alone would draw the shard's fault hook a second
// time for the same attempt.
func TestFailedSingletonDrawsHookOnce(t *testing.T) {
	const steps = 16
	var backends []BackendConfig
	for _, name := range []string{"fpga-ivb", "cpu-ref"} {
		p, err := accel.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := p.NewEngine(steps)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, BackendConfig{Name: name, Estimate: eng.Estimate(), Engine: eng})
	}
	s, _ := newTestServer(t, Config{Steps: steps, CacheSize: -1, Backends: backends})
	inj, err := faults.Parse("fpga-ivb:err=1", 7)
	if err != nil {
		t.Fatalf("faults.Parse: %v", err)
	}
	// fpga-ivb is the cheaper shard per option, so it gets the first try.
	backends[0].Engine.SetFaultHook(inj.HookFor("fpga-ivb"))

	res, err := s.PriceOptions(context.Background(), []option.Option{testOption(0)})
	if err != nil {
		t.Fatalf("PriceOptions: %v", err)
	}
	if res[0].Backend != "cpu-ref" || res[0].Retries != 1 {
		t.Errorf("served by %q after %d retries, want cpu-ref after 1", res[0].Backend, res[0].Retries)
	}
	if calls := inj.Calls("fpga-ivb"); calls != 1 {
		t.Errorf("fpga-ivb fault hook drawn %d times for one attempt, want 1", calls)
	}
	if got := s.metrics.priceErrors.Load(); got != 1 {
		t.Errorf("price errors = %d, want 1", got)
	}
}
