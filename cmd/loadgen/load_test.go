package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"binopt/internal/serve"
	"binopt/internal/workload"
)

// newTestServer starts a pricing server behind an httptest listener,
// both torn down when the test ends.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, hs
}

// TestRunLoadSmall checks the generator's accounting on a tiny workload.
func TestRunLoadSmall(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{Steps: 32})
	spec := workload.DefaultVolCurveSpec(3)
	spec.N = 8
	chain, err := workload.Chain(spec)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := runLoad(context.Background(), loadConfig{
		Targets: []string{hs.URL}, Options: chain,
		Concurrency: 2, BatchSize: 3, WarmupPasses: 1, Passes: 2,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if rep.WarmupOptions != 8 {
		t.Errorf("warmup options = %d, want 8", rep.WarmupOptions)
	}
	if rep.Options != 16 {
		t.Errorf("measured options = %d, want 16", rep.Options)
	}
	if rep.Requests != 6 { // ceil(8/3)=3 requests per pass, 2 passes
		t.Errorf("requests = %d, want 6", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	// Warmup primed the cache, so the measured passes must be all hits.
	if rep.CacheHits != 16 {
		t.Errorf("cache hits = %d, want 16", rep.CacheHits)
	}
	if rep.ModelledJoules <= 0 || rep.JoulesPerOption <= 0 {
		t.Errorf("energy accounting missing: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("latency quantiles inconsistent: p50 %v p99 %v", rep.P50, rep.P99)
	}
	for _, want := range []string{"throughput:", "latency:", "p99", "J/option", "errors:"} {
		if !strings.Contains(rep.Text(), want) {
			t.Errorf("report text missing %q:\n%s", want, rep.Text())
		}
	}
}

// TestRunLoadMultiTarget: with Targets set, requests round-robin across
// the servers and the report carries a per-target breakdown whose rows
// sum to the fleet totals.
func TestRunLoadMultiTarget(t *testing.T) {
	_, hsA := newTestServer(t, serve.Config{Steps: 32})
	_, hsB := newTestServer(t, serve.Config{Steps: 32})
	spec := workload.DefaultVolCurveSpec(9)
	spec.N = 12
	chain, err := workload.Chain(spec)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := runLoad(context.Background(), loadConfig{
		Targets: []string{hsA.URL, hsB.URL}, Options: chain,
		Concurrency: 2, BatchSize: 3, Passes: 2,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("per-target rows = %d, want 2", len(rep.Targets))
	}
	var sumReqs, sumOpts int64
	for _, tr := range rep.Targets {
		if tr.Requests == 0 {
			t.Errorf("target %s got no traffic — round-robin stuck", tr.BaseURL)
		}
		if tr.P50 <= 0 {
			t.Errorf("target %s has no latency quantiles", tr.BaseURL)
		}
		sumReqs += tr.Requests
		sumOpts += tr.Options
	}
	if sumReqs != rep.Requests || sumOpts != rep.Options {
		t.Errorf("per-target rows sum to %d reqs / %d options, fleet totals %d / %d",
			sumReqs, sumOpts, rep.Requests, rep.Options)
	}
	if !strings.Contains(rep.Text(), "target:") {
		t.Errorf("report text missing per-target rows:\n%s", rep.Text())
	}

	// No target configured at all is a configuration error.
	if _, err := runLoad(context.Background(), loadConfig{Options: chain}); err == nil {
		t.Error("runLoad accepted a config with no target")
	}
}

// TestRunLoadRPSThrottle bounds the measured request rate.
func TestRunLoadRPSThrottle(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{Steps: 16})
	spec := workload.DefaultVolCurveSpec(5)
	spec.N = 4
	chain, err := workload.Chain(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := runLoad(context.Background(), loadConfig{
		Targets: []string{hs.URL}, Options: chain,
		Concurrency: 1, BatchSize: 2, Passes: 2, RPS: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 requests at 50 req/s: the ticker spaces them ~20ms apart.
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Errorf("throttled run finished in %s; RPS limit not applied", el)
	}
	if rep.Requests != 4 {
		t.Errorf("requests = %d, want 4", rep.Requests)
	}
}

// TestLoadgenSmoke2000OptionsPerSec is the acceptance run: the paper's
// 2000-American-put chain at the full 1024-step evaluation depth, served
// in-process. One warmup pass prices the whole curve cold (filling the
// cache, paying the modelled energy); the measured passes then sustain
// the steady-state serving rate, which must clear the paper's 2000
// options/s use-case budget while the report carries latency quantiles
// and modelled joules/option.
func TestLoadgenSmoke2000OptionsPerSec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 1024-step smoke run in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping throughput assertion under the race detector")
	}

	chain, err := workload.Chain(workload.DefaultVolCurveSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2000 {
		t.Fatalf("chain size %d, want the paper's 2000", len(chain))
	}

	_, hs := newTestServer(t, serve.Config{Steps: 1024})
	rep, err := runLoad(context.Background(), loadConfig{
		Targets: []string{hs.URL}, Options: chain,
		Concurrency: 4, BatchSize: 250, WarmupPasses: 1, Passes: 4,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	t.Logf("loadgen summary:\n%s", rep.Text())

	if rep.Errors != 0 {
		t.Fatalf("measured phase saw %d errors", rep.Errors)
	}
	if rep.Options != 8000 {
		t.Fatalf("measured %d options, want 8000", rep.Options)
	}
	if rep.OptionsPerSec < 2000 {
		t.Fatalf("sustained %.0f options/s, need >= 2000 (paper §I budget)", rep.OptionsPerSec)
	}
	if rep.P50 <= 0 || rep.P95 < rep.P50 || rep.P99 < rep.P95 {
		t.Fatalf("latency quantiles missing or inconsistent: p50 %v p95 %v p99 %v", rep.P50, rep.P95, rep.P99)
	}
	if rep.JoulesPerOption <= 0 {
		t.Fatalf("modelled joules/option missing from summary: %+v", rep)
	}
}

// TestRunLoadDeadTargetFailsFast: when every worker dies on a transport
// error (here: a server that is already down), the feeder must stop
// rather than block forever on the work channel. (Regression: workers
// exited on the first error without cancelling, and with all workers
// gone the unbuffered send in the feed loop deadlocked under a
// background context.)
func TestRunLoadDeadTargetFailsFast(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{Steps: 32})
	dead := hs.URL
	hs.Close() // nothing listens here any more

	spec := workload.DefaultVolCurveSpec(3)
	spec.N = 8
	chain, err := workload.Chain(spec)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, err := runLoad(context.Background(), loadConfig{
			Targets: []string{dead}, Options: chain,
			Concurrency: 1, BatchSize: 1, Passes: 1,
		})
		done <- result{err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("runLoad against a dead target reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runLoad deadlocked against a dead target")
	}
}
