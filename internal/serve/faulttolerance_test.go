package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"binopt/internal/faults"
	"binopt/internal/option"
	"binopt/internal/workload"
)

// TestFailoverAbsorbsShardFaults is the acceptance scenario: one shard
// of a two-shard pool fails 20% of its pricings, and the paper's
// 2000-put chain must still complete with zero client-visible errors
// and prices bit-identical to the reference lattice, with the outage
// observable — retries counted, the flaky shard's breaker open on
// /healthz and /metrics, and the modelled drain rate behind Retry-After
// excluding the shard being routed around.
func TestFailoverAbsorbsShardFaults(t *testing.T) {
	// The flaky shard is the cheaper per option and the faster to
	// drain, so the dispatcher prefers it until its breaker opens —
	// faults are guaranteed to be exercised, not routed around by luck.
	flaky := testShard(t, "fpga-ivb", 16, 2, 0)
	flaky.Name = "flaky"
	healthy := testShard(t, "cpu-ref", 16, 2, 0)
	healthy.Name = "healthy"
	s, hs := newTestServer(t, Config{
		Steps: 16, QueueDepth: 4096, CacheSize: -1,
		Backends: []BackendConfig{flaky, healthy},
		// Once open the breaker must stay open through the post-run
		// assertions below.
		Breaker: BreakerConfig{Cooldown: time.Hour},
	})
	inj, err := faults.Parse("flaky:err=0.2", 7)
	if err != nil {
		t.Fatalf("faults.Parse: %v", err)
	}
	flaky.Engine.SetFaultHook(inj.HookFor("flaky"))

	chain, err := workload.Chain(workload.DefaultVolCurveSpec(7))
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	results, err := s.PriceOptions(context.Background(), chain)
	if err != nil {
		t.Fatalf("PriceOptions under 20%% shard faults: %v", err)
	}

	want, err := refEngine(t, s).PriceBatch(chain, 0)
	if err != nil {
		t.Fatal(err)
	}
	var retries int64
	for i, r := range results {
		if r.Price != want[i] {
			t.Fatalf("option %d: price %v, want %v (failover must be numerically invisible)", i, r.Price, want[i])
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
	if rate, want := s.aggregateRate(), healthy.Engine.Estimate().OptionsPerSec; rate != want {
		t.Fatalf("aggregateRate = %v, want %v (healthy only; flaky is open)", rate, want)
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
	shard := testShard(t, "cpu-ref", 16, 2, 0)
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 256, CacheSize: -1, MaxAttempts: 1,
		Backends: []BackendConfig{shard},
	})
	// The request's misses leave as one batch. Its submission draws the
	// hook first and fails, so the shard re-runs the jobs one by one in
	// order, each drawing the hook again: failing the draw for job
	// poisoned fails that contract alone.
	var calls atomic.Int64
	shard.Engine.SetFaultHook(func() error {
		switch calls.Add(1) {
		case 1:
			return errors.New("submission fault")
		case 2 + poisoned:
			return errors.New("poisoned contract")
		}
		return nil
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
		t.Fatalf("error %q lost the engine's cause", err)
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
	// The dead shard is the cheaper per option, so it gets the first try.
	dead := testShard(t, "fpga-ivb", 16, 1, 0)
	dead.Name = "dead"
	alive := testShard(t, "cpu-ref", 16, 1, 0)
	alive.Name = "alive"
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 64, CacheSize: -1,
		Backends: []BackendConfig{dead, alive},
		Breaker:  BreakerConfig{Cooldown: time.Hour},
	})
	dead.Engine.SetFaultHook(func() error { return errors.New("dead shard") })

	o := testOption(1)
	res, err := s.PriceOptions(context.Background(), []option.Option{o})
	if err != nil {
		t.Fatalf("PriceOptions: %v", err)
	}
	if want := refPrice(t, s, o); res[0].Price != want {
		t.Fatalf("price %v, want %v", res[0].Price, want)
	}
	if res[0].Backend != "alive" {
		t.Fatalf("priced on %q, want the failover shard \"alive\"", res[0].Backend)
	}
	if res[0].Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", res[0].Retries)
	}
}

// TestCloseWaitsForBackoffRetry: Close must drain a job that is waiting
// out its retry backoff. The job holds its admission slot through the
// backoff, so Close waits for it; closing the shard queues at once
// would leave the backoff timer's re-dispatch to send on a closed
// queue.
func TestCloseWaitsForBackoffRetry(t *testing.T) {
	flaky := testShard(t, "fpga-ivb", 16, 1, 0)
	flaky.Name = "flaky"
	healthy := testShard(t, "cpu-ref", 16, 1, 0)
	healthy.Name = "healthy"
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 64, CacheSize: -1,
		MaxAttempts: 2, RetryBackoff: 50 * time.Millisecond,
		Backends: []BackendConfig{flaky, healthy},
	})
	var calls atomic.Int64
	flaky.Engine.SetFaultHook(func() error {
		if calls.Add(1) == 1 {
			return errors.New("transient fault")
		}
		return nil
	})

	o := testOption(1)
	type outcome struct {
		res []Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.PriceOptions(context.Background(), []option.Option{o})
		done <- outcome{res, err}
	}()
	for s.metrics.retries.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close with a retry in backoff: %v", err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("PriceOptions: %v", got.err)
	}
	if want := refPrice(t, s, o); got.res[0].Price != want || got.res[0].Retries != 1 {
		t.Fatalf("result %+v, want price %v after 1 retry", got.res[0], want)
	}
}

// TestAttemptBudgetExhaustsAcrossShards: with every shard dead, the
// error reaches the client only after MaxAttempts distinct tries.
func TestAttemptBudgetExhaustsAcrossShards(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Steps: 16, QueueDepth: 64, CacheSize: -1, MaxAttempts: 3,
		Backends: []BackendConfig{
			testShard(t, "fpga-ivb", 16, 1, 0),
			testShard(t, "cpu-ref", 16, 1, 0),
		},
	})
	// Each attempt is a one-job submission: one hook draw.
	attempts := make(chan string, 16)
	for _, be := range s.backends {
		name := be.cfg.Name
		be.cfg.Engine.SetFaultHook(func() error {
			attempts <- name
			return errors.New("outage")
		})
	}

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
		t.Fatalf("fault hooks drew %d times, want exactly MaxAttempts=3", n)
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
	backends := []BackendConfig{testShard(t, "fpga-ivb", 16, 1, 0), testShard(t, "cpu-ref", 16, 1, 0)}
	s, _ := newTestServer(t, Config{Steps: 16, CacheSize: -1, Backends: backends})
	inj, err := faults.Parse("fpga-ivb:err=1", 7)
	if err != nil {
		t.Fatalf("faults.Parse: %v", err)
	}
	// fpga-ivb is the cheaper shard per option, so it gets the first try.
	hook := inj.HookFor("fpga-ivb")
	var calls atomic.Int64
	backends[0].Engine.SetFaultHook(func() error { calls.Add(1); return hook() })

	res, err := s.PriceOptions(context.Background(), []option.Option{testOption(0)})
	if err != nil {
		t.Fatalf("PriceOptions: %v", err)
	}
	if res[0].Backend != "cpu-ref" || res[0].Retries != 1 {
		t.Errorf("served by %q after %d retries, want cpu-ref after 1", res[0].Backend, res[0].Retries)
	}
	if calls := calls.Load(); calls != 1 {
		t.Errorf("fpga-ivb fault hook drawn %d times for one attempt, want 1", calls)
	}
	if got := s.metrics.priceErrors.Load(); got != 1 {
		t.Errorf("price errors = %d, want 1", got)
	}
}
