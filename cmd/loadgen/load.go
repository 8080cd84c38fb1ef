package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/option"
	"binopt/internal/serve"
)

// loadConfig parameterises a load-generation run against a pricing
// server. The workload is split into batch requests of BatchSize
// contracts; WarmupPasses sweeps prime the server (cold lattice pricing,
// cache fill) and are reported separately, then Passes sweeps are
// measured.
type loadConfig struct {
	// Targets are the base URLs of the servers, e.g.
	// "http://127.0.0.1:8080". Requests round-robin across them and the
	// report carries a per-target breakdown. Several targets are
	// client-side spreading for comparing raw nodes; give one cluster
	// router instead to measure the fabric's own placement (ring-aware,
	// cache-aligned).
	Targets []string
	// Options is the workload, typically the paper's 2000-put chain.
	Options []option.Option
	// Concurrency is the number of in-flight requests (default 4).
	Concurrency int
	// BatchSize is contracts per request (default 250).
	BatchSize int
	// WarmupPasses over the workload before measurement (default 0).
	WarmupPasses int
	// Passes over the workload during measurement (default 1).
	Passes int
	// RPS throttles the measured request rate; 0 means unlimited.
	RPS float64
}

// loadReport summarises a run: client-observed throughput, exact latency
// quantiles over per-request round trips, and the server's modelled
// energy bill for the options it actually priced.
type loadReport struct {
	// Warmup phase totals (zero when WarmupPasses == 0).
	WarmupOptions int64
	WarmupElapsed time.Duration

	// Measured phase.
	Requests      int64
	Errors        int64
	Options       int64
	CacheHits     int64
	Retries       int64 // failover re-dispatches the server survived for us
	Elapsed       time.Duration
	OptionsPerSec float64
	P50, P95, P99 time.Duration

	// Energy across the whole run (warmup + measured): modelled joules
	// accumulated by the backend shards, amortised per option served.
	ModelledJoules  float64
	JoulesPerOption float64

	// Per-phase mean latencies of the priced (non-cached) options across
	// the whole run, aggregated from the server's Server-Timing response
	// headers. PhasePriced is the number of options contributing; all
	// zero against a server without phase timing. HeaderJoules is the
	// sum of the headers' per-request joules entries — on a consistent
	// server it reconciles with ModelledJoules, so a divergence flags a
	// node double-booking or dropping energy.
	PhaseBatch, PhaseQueue  time.Duration
	PhaseCompute, PhaseRead time.Duration
	PhasePriced             int64
	HeaderJoules            float64

	// Targets is the measured-phase per-target breakdown, in the order
	// the targets were configured. Single-target runs get one row.
	Targets []targetReport
}

// targetReport is the measured-phase slice of one target in a
// multi-target run: its share of the traffic and its own latency
// quantiles, so a slow node shows up as itself instead of smearing the
// fleet-wide tail.
type targetReport struct {
	BaseURL       string
	Requests      int64
	Errors        int64
	Options       int64
	OptionsPerSec float64
	P50, P95, P99 time.Duration
}

// Text renders the report as the operator-facing summary.
func (r loadReport) Text() string {
	var b strings.Builder
	if r.WarmupOptions > 0 {
		fmt.Fprintf(&b, "warmup:   %d options in %.2fs (%.0f options/s, cold path)\n",
			r.WarmupOptions, r.WarmupElapsed.Seconds(),
			float64(r.WarmupOptions)/r.WarmupElapsed.Seconds())
	}
	fmt.Fprintf(&b, "measured: %d options in %d requests over %.2fs\n", r.Options, r.Requests, r.Elapsed.Seconds())
	fmt.Fprintf(&b, "throughput: %.0f options/s sustained\n", r.OptionsPerSec)
	fmt.Fprintf(&b, "latency:  p50 %s  p95 %s  p99 %s (per request)\n", r.P50, r.P95, r.P99)
	fmt.Fprintf(&b, "cache:    %d/%d hits (%.1f%%)\n", r.CacheHits, r.Options, 100*float64(r.CacheHits)/float64(max(r.Options, 1)))
	if r.PhasePriced > 0 {
		fmt.Fprintf(&b, "phases:   batch %s  queue %s  compute %s  readback %s (mean per priced option, %d options)\n",
			r.PhaseBatch, r.PhaseQueue, r.PhaseCompute, r.PhaseRead, r.PhasePriced)
	}
	fmt.Fprintf(&b, "energy:   %.4g J modelled total, %.4g J/option amortised\n", r.ModelledJoules, r.JoulesPerOption)
	if r.HeaderJoules > 0 {
		fmt.Fprintf(&b, "ledger:   %.4g J attributed via Server-Timing headers\n", r.HeaderJoules)
	}
	if r.Retries > 0 {
		fmt.Fprintf(&b, "retries:  %d failover re-dispatches absorbed server-side\n", r.Retries)
	}
	fmt.Fprintf(&b, "errors:   %d\n", r.Errors)
	if len(r.Targets) > 1 {
		for _, tr := range r.Targets {
			fmt.Fprintf(&b, "target:   %s  %d reqs  %d options  %.0f options/s  p50 %s  p95 %s  p99 %s  errors %d\n",
				tr.BaseURL, tr.Requests, tr.Options, tr.OptionsPerSec, tr.P50, tr.P95, tr.P99, tr.Errors)
		}
	}
	return b.String()
}

// loadRequest is one pre-encoded batch request.
type loadRequest struct {
	body    []byte
	options int
}

// runLoad drives the server with the configured workload and returns the
// report. The warmup phase exercises the cold pricing path; the measured
// phase reports sustained serving throughput (on a repeated workload this
// is dominated by cache hits — by design, that is the serving tier's
// steady state).
func runLoad(ctx context.Context, cfg loadConfig) (loadReport, error) {
	if len(cfg.Options) == 0 {
		return loadReport{}, fmt.Errorf("loadgen: empty workload")
	}
	if len(cfg.Targets) == 0 {
		return loadReport{}, fmt.Errorf("loadgen: no target")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 250
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Concurrency}}

	// Pre-encode one pass worth of batch requests.
	var pass []loadRequest
	for at := 0; at < len(cfg.Options); at += cfg.BatchSize {
		chunk := cfg.Options[at:min(at+cfg.BatchSize, len(cfg.Options))]
		req := serve.PriceRequest{Contracts: make([]serve.Contract, len(chunk))}
		for i, o := range chunk {
			req.Contracts[i] = serve.FromOption(o)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return loadReport{}, fmt.Errorf("loadgen: encoding batch: %w", err)
		}
		pass = append(pass, loadRequest{body: body, options: len(chunk)})
	}

	var rep loadReport

	if cfg.WarmupPasses > 0 {
		start := time.Now()
		stats, err := sweep(ctx, client, cfg, pass, cfg.WarmupPasses, 0)
		if err != nil {
			return rep, err
		}
		rep.WarmupOptions = stats.options
		rep.WarmupElapsed = time.Since(start)
		rep.ModelledJoules += stats.joules
		rep.addPhases(stats)
	}

	start := time.Now()
	stats, err := sweep(ctx, client, cfg, pass, cfg.Passes, cfg.RPS)
	if err != nil {
		return rep, err
	}
	rep.addPhases(stats)
	rep.Elapsed = time.Since(start)
	rep.Requests = stats.requests
	rep.Errors = stats.errors
	rep.Options = stats.options
	rep.CacheHits = stats.cacheHits
	rep.Retries = stats.retries
	rep.ModelledJoules += stats.joules
	if rep.Elapsed > 0 {
		rep.OptionsPerSec = float64(stats.options) / rep.Elapsed.Seconds()
	}
	rep.P50, rep.P95, rep.P99 = quantiles(stats.latencies)
	for i, ts := range stats.perTarget {
		tr := targetReport{
			BaseURL: cfg.Targets[i], Requests: ts.requests,
			Errors: ts.errors, Options: ts.options,
		}
		if rep.Elapsed > 0 {
			tr.OptionsPerSec = float64(ts.options) / rep.Elapsed.Seconds()
		}
		tr.P50, tr.P95, tr.P99 = quantiles(ts.latencies)
		rep.Targets = append(rep.Targets, tr)
	}
	total := rep.WarmupOptions + rep.Options
	if total > 0 {
		rep.JoulesPerOption = rep.ModelledJoules / float64(total)
	}
	return rep, nil
}

// targetStats tallies the requests one target (or, embedded in
// sweepStats, the whole sweep) answered.
type targetStats struct {
	requests, errors, options int64
	latencies                 []time.Duration
}

// record books one round trip; a failed one carries no options.
func (ts *targetStats) record(lat time.Duration, failed bool, options int) {
	ts.requests++
	ts.latencies = append(ts.latencies, lat)
	if failed {
		ts.errors++
	} else {
		ts.options += int64(options)
	}
}

type sweepStats struct {
	targetStats
	cacheHits, retries int64
	joules             float64
	phases             serve.PhaseBreakdown
	perTarget          []targetStats // parallel to cfg.Targets
}

// addPhases folds one sweep's phase sums into the report's running
// per-option means.
func (r *loadReport) addPhases(stats sweepStats) {
	p := stats.phases
	r.HeaderJoules += p.Joules
	if p.Priced == 0 {
		return
	}
	prev := r.PhasePriced
	total := prev + int64(p.Priced)
	mix := func(mean time.Duration, sum time.Duration) time.Duration {
		return time.Duration((int64(mean)*prev + int64(sum)) / total)
	}
	r.PhaseBatch = mix(r.PhaseBatch, p.Batch)
	r.PhaseQueue = mix(r.PhaseQueue, p.Queue)
	r.PhaseCompute = mix(r.PhaseCompute, p.Compute)
	r.PhaseRead = mix(r.PhaseRead, p.Readback)
	r.PhasePriced = total
}

// sweep runs `passes` copies of the request set through a worker pool and
// aggregates per-request observations.
func sweep(ctx context.Context, client *http.Client, cfg loadConfig, pass []loadRequest, passes int, rps float64) (sweepStats, error) {
	// A worker that hits a transport error exits; once every worker is
	// gone the feeder would block forever on an unbuffered send. The
	// sweep-local cancel turns "first worker death" into "feeder stops",
	// independent of the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan loadRequest)
	var throttle <-chan time.Time
	if rps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / rps))
		defer t.Stop()
		throttle = t.C
	}

	var (
		mu    sync.Mutex
		stats sweepStats
		wg    sync.WaitGroup
		fail  atomic.Value  // first transport-level error
		rr    atomic.Uint64 // round-robin cursor over cfg.Targets
	)
	stats.perTarget = make([]targetStats, len(cfg.Targets))
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lr := range work {
				ti := int((rr.Add(1) - 1) % uint64(len(cfg.Targets)))
				t0 := time.Now()
				obs, err := doPriceRequest(ctx, client, cfg.Targets[ti], lr)
				lat := time.Since(t0)
				if err != nil {
					fail.CompareAndSwap(nil, err)
					cancel()
					return
				}
				mu.Lock()
				stats.record(lat, obs.httpErr, lr.options)
				stats.perTarget[ti].record(lat, obs.httpErr, lr.options)
				if !obs.httpErr {
					stats.cacheHits += obs.cacheHits
					stats.retries += obs.retries
					stats.joules += obs.joules
					stats.phases.Add(obs.phases)
				}
				mu.Unlock()
			}
		}()
	}

feed:
	for p := 0; p < passes; p++ {
		for _, lr := range pass {
			if throttle != nil {
				select {
				case <-throttle:
				case <-ctx.Done():
					break feed
				}
			}
			select {
			case work <- lr:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(work)
	wg.Wait()
	if err, ok := fail.Load().(error); ok && err != nil {
		return stats, fmt.Errorf("loadgen: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return stats, fmt.Errorf("loadgen: %w", err)
	}
	return stats, nil
}

type requestObs struct {
	httpErr   bool
	cacheHits int64
	retries   int64
	joules    float64
	phases    serve.PhaseBreakdown
}

// doPriceRequest posts one batch and parses the response. Non-2xx
// statuses (e.g. 429 under saturation) count as request errors, not
// transport failures — the generator keeps going, as a real client would.
func doPriceRequest(ctx context.Context, client *http.Client, baseURL string, lr loadRequest) (requestObs, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/price", bytes.NewReader(lr.body))
	if err != nil {
		return requestObs{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return requestObs{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return requestObs{httpErr: true}, nil
	}
	var pr serve.PriceResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return requestObs{}, fmt.Errorf("decoding response: %w", err)
	}
	obs := requestObs{}
	if st := resp.Header.Get("Server-Timing"); st != "" {
		obs.phases, _ = serve.ParseServerTiming(st)
	}
	for _, res := range pr.Results {
		if res.Cached {
			obs.cacheHits++
		}
		obs.retries += int64(res.Retries)
		obs.joules += res.ModelledJoules
	}
	return obs, nil
}

// quantiles sorts d and returns its p50, p95 and p99 (zero when empty).
func quantiles(d []time.Duration) (p50, p95, p99 time.Duration) {
	if len(d) == 0 {
		return 0, 0, 0
	}
	slices.Sort(d)
	at := func(q float64) time.Duration { return d[int(q*float64(len(d)-1))] }
	return at(0.50), at(0.95), at(0.99)
}
