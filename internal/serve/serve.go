// Package serve is the pricing service layer over the binopt engines: a
// batched HTTP/JSON API backed by one micro-batching FIFO, a pool
// with one shard per accel-registry platform (FPGA kernel IV.B, GPU,
// CPU reference, plus any extra registered target), an LRU
// result cache keyed by canonicalised contract parameters, and a metrics
// surface reporting throughput, latency quantiles and modelled energy.
// Every shard is a platform engine: each cache-miss batch is one
// submission to its engine's batch pricer, with per-device counter,
// device-clock and energy accounting. It turns the library's one-shot
// experiments into the data-centre serving tier the paper's use case —
// 2000-option implied-volatility curves on demand under a
// throughput/energy budget — actually requires.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/lattice"
	"binopt/internal/obslog"
	"binopt/internal/option"
	"binopt/internal/scenario"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

// Config parameterises a Server. The zero value of every field has a
// sensible default.
type Config struct {
	// Steps is the lattice depth every request is priced at (default
	// 1024, the paper's evaluation depth).
	Steps int
	// MaxBatch is the size trigger of the micro-batching queue (default
	// 64 options per flush) and the most a freed shard slot takes from
	// work buffered while every worker was busy.
	MaxBatch int
	// QueueDepth bounds the total options admitted and not yet priced;
	// beyond it requests are rejected with ErrSaturated / HTTP 429
	// (default 8192).
	QueueDepth int
	// CacheSize is the LRU capacity in contracts (default 65536; set
	// negative to disable caching).
	CacheSize int
	// Backends is the shard pool (default DefaultBackends(Steps)). Every
	// shard needs an Engine at Steps depth.
	Backends []BackendConfig
	// MaxAttempts bounds how many shards a single option may be tried
	// on before its error reaches the client (default 3; 1 disables
	// failover). Results are bit-identical across shards, so re-
	// dispatching a failed job elsewhere is semantically invisible.
	MaxAttempts int
	// RetryBackoff is the base of the exponential backoff between a
	// failed attempt and its re-dispatch (default 1ms; attempt n waits
	// RetryBackoff << (n-1)).
	RetryBackoff time.Duration
	// Breaker parameterises the per-shard circuit breakers; zero fields
	// take the BreakerConfig defaults.
	Breaker BreakerConfig
	// Tracer, when set, receives spans for every request and shard
	// batch — host phases and modelled device commands — and enables
	// the /debug/trace Chrome-trace endpoint. nil disables tracing (the
	// emit paths become no-ops).
	Tracer *telemetry.Tracer
	// Node names this process in fleet observability surfaces: span
	// export pages, log lines, the aggregator's per-node trace lanes.
	// Empty is fine for a solo server.
	Node string
	// SLO, when set, enables the burn-rate monitor over the /v1/price
	// path with these objectives; its state surfaces on /healthz and
	// /debug/slo. Options (not a Monitor) so every node of a fleet
	// constructs its own window state from one shared config.
	SLO *slo.Options
	// Logger receives structured request/fault logs. nil logs nothing.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8192
	}
	if c.CacheSize == 0 {
		c.CacheSize = 65536
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	return c
}

// Result is one priced contract as returned to clients.
type Result struct {
	// Price is the option value on the reference lattice.
	Price float64 `json:"price"`
	// Cached reports whether the result came from the LRU.
	Cached bool `json:"cached"`
	// Backend names the shard that priced it ("cache" on a hit).
	Backend string `json:"backend"`
	// ModelledJoules is the modelled energy of producing this result on
	// the shard's device (zero for cache hits).
	ModelledJoules float64 `json:"modelled_joules"`
	// Retries counts the failed pricing attempts this option survived
	// before Backend produced it — nonzero means failover saved the
	// request from a shard fault.
	Retries int `json:"retries,omitempty"`
}

// Server is the pricing service. Construct with New, serve via Handler,
// stop with Close. Every pricing it does runs on a shard's engine, and
// every piece of work waits for an idle shard slot in the batcher's
// FIFO: contract batches then run on a runner goroutine of their own,
// revaluations and implied-vol rounds through the shard runner
// (onShard) on the request goroutine.
type Server struct {
	cfg Config

	cache     *lru[Key, float64]
	scenarios *lru[string, scenario.Report]
	metrics   *metrics
	batcher   *batcher
	backends  []*backend
	tracer    *telemetry.Tracer // nil-safe: nil is the disabled tracer
	slomon    *slo.Monitor      // nil-safe: nil is the disabled monitor
	logger    *slog.Logger      // never nil: obslog.Or substitutes Nop

	queued atomic.Int64 // admitted, not yet completed
	closed atomic.Bool
	wg     sync.WaitGroup // chunk runners

	// cacheGen is the result cache's market-data generation. A bump —
	// local via Invalidate, or remote via POST /v1/invalidate from a
	// cluster gossip peer — flushes the cache, so a vol-surface update
	// on any node of a fleet stops every node from serving prices
	// computed against the old surface. Monotonic; stale bumps no-op.
	cacheGen atomic.Uint64
}

// New builds and starts a Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Backends == nil {
		var err error
		cfg.Backends, err = DefaultBackends(cfg.Steps)
		if err != nil {
			return nil, err
		}
	}
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("serve: at least one backend required")
	}

	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		cache:   newLRU[Key, float64](cfg.CacheSize),
		// The scenario cache shares the contract cache's on/off switch:
		// a server that must not serve memoised prices must not serve
		// memoised revaluations either.
		scenarios: newLRU[string, scenario.Report](scenarioCacheCapFor(cfg.CacheSize)),
		tracer:    cfg.Tracer,
		logger:    obslog.Or(cfg.Logger),
	}
	if cfg.Node != "" {
		s.logger = s.logger.With(obslog.KeyNode, cfg.Node)
	}
	if cfg.SLO != nil {
		s.slomon = slo.New(*cfg.SLO)
	}
	for _, bc := range cfg.Backends {
		if bc.Engine == nil {
			return nil, fmt.Errorf("serve: backend %q has no engine", bc.Name)
		}
		s.backends = append(s.backends, newBackend(bc, s.metrics, cfg.Breaker))
	}
	if err := s.verifyEngineParity(); err != nil {
		return nil, err
	}
	s.metrics.substrate = s.substrateStats
	s.metrics.breakers = s.breakerStats
	if s.tracer.Enabled() {
		s.metrics.traceStats = func() (int64, int64, int) {
			return s.tracer.Emitted(), s.tracer.Dropped(), s.tracer.Len()
		}
	}
	slots := 0
	for _, be := range s.backends {
		slots += be.cfg.Workers
	}
	s.batcher = newBatcher(cfg.MaxBatch, slots)
	return s, nil
}

// verifyEngineParity prices one canonical contract on every shard's
// platform engine and requires the results to match a reference
// lattice bit for bit — the serving-layer version of the kernel
// validation in §V-B. The probe books nothing, so a fresh server's
// counters show client work only.
func (s *Server) verifyEngineParity() error {
	probe := option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
	ref, err := lattice.NewEngine(s.cfg.Steps)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	want, err := ref.Price(probe)
	if err != nil {
		return fmt.Errorf("serve: parity reference: %w", err)
	}
	for _, be := range s.backends {
		got, err := be.cfg.Engine.PriceUnbooked(probe)
		if err != nil {
			return fmt.Errorf("serve: parity probe on %s: %w", be.cfg.Name, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("serve: backend %s diverges from the reference lattice: %v (%#x) != %v (%#x)",
				be.cfg.Name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return nil
}

// substrateStats snapshots per-backend device activity from the platform
// engines for the metrics page.
func (s *Server) substrateStats() []substrateStat {
	out := make([]substrateStat, 0, len(s.backends))
	for _, be := range s.backends {
		out = append(out, substrateStat{
			backend:    be.cfg.Name,
			counters:   be.cfg.Engine.Counters(),
			joules:     be.cfg.Engine.ModelledJoules(),
			devSeconds: be.cfg.Engine.ModelledDeviceSeconds(),
		})
	}
	return out
}

// CacheGeneration reports the result cache's current market-data
// generation.
func (s *Server) CacheGeneration() uint64 { return s.cacheGen.Load() }

// Invalidate applies a market-data generation bump: when gen exceeds the
// current generation the result cache is flushed and gen becomes
// current, returning true. A stale or duplicate bump (gen <= current) is
// a no-op returning false — that idempotence is what lets cluster
// gossip re-deliver the same invalidation along many paths without
// repeatedly dumping warm caches.
func (s *Server) Invalidate(gen uint64) bool {
	for {
		cur := s.cacheGen.Load()
		if gen <= cur {
			return false
		}
		if s.cacheGen.CompareAndSwap(cur, gen) {
			// A generation bump outdates memoised revaluations exactly as
			// it outdates memoised prices, so both caches flush together.
			evicted := s.cache.flush() + s.scenarios.flush()
			s.metrics.invalidations.Add(1)
			s.metrics.invalidatedEntries.Add(int64(evicted))
			return true
		}
	}
}

// QueueDepth reports the currently admitted, not yet completed options.
func (s *Server) QueueDepth() int64 { return s.queued.Load() }

// RetryAfter estimates, from the modelled aggregate throughput, how long
// a rejected client should wait before retrying (at least one second).
func (s *Server) RetryAfter() time.Duration {
	secs := float64(s.queued.Load()) / s.aggregateRate()
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs * float64(time.Second))
}

// PhaseBreakdown sums, over a request's priced (non-cached) options,
// the wall time spent in each pipeline phase: batch assembly wait,
// shard queue wait, compute, and readback (result delivery back to the
// requester). The four phases telescope — their sum is exactly the
// summed end-to-end latency of the priced options.
type PhaseBreakdown struct {
	Batch, Queue, Compute, Readback time.Duration
	// Priced counts the options contributing (cache hits skip every
	// phase and contribute nothing).
	Priced int
	// Joules is the request's modelled energy: the sum of the priced
	// options' per-option modelled joules on the shards that priced
	// them. Cache hits contribute zero — exactly as they contribute
	// zero to the engines' booked totals, which is what makes this
	// ledger sum (across requests) to the binopt_modelled_joules_total
	// delta.
	Joules float64
}

// ServerTiming renders the breakdown as a Server-Timing header value:
// per-phase summed milliseconds, the contributing option count, and the
// request's modelled joules — the form loadgen aggregates across
// requests. joules abuses the dur= slot like priced does; the metric
// name, not the slot, carries the unit.
func (p PhaseBreakdown) ServerTiming() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("batch;dur=%.3f, queue;dur=%.3f, compute;dur=%.3f, readback;dur=%.3f, priced;dur=%d, joules;dur=%.9g",
		ms(p.Batch), ms(p.Queue), ms(p.Compute), ms(p.Readback), p.Priced, p.Joules)
}

// ParseServerTiming reads a Server-Timing header back into the phase
// breakdown the server rendered it from — the inverse of
// PhaseBreakdown.ServerTiming. The cluster router uses it to merge the
// phase accounting of sub-batches fanned out across nodes into one
// fleet-level header, and loadgen to aggregate it across requests.
//
// It follows the header's grammar rather than the exact string the
// server emits: entries split on ",", parameters on ";", and the dur
// parameter may sit anywhere among other parameters
// ("compute;desc=fpga;dur=10"). Unknown metrics, unknown parameters and
// malformed values — unparseable, negative, non-finite or out of
// range — are skipped (proxies append their own entries; newer
// servers add metrics older clients haven't heard of); the error fires
// only when a non-empty header yields no recognised metric at all,
// which means the peer is not speaking this protocol.
func ParseServerTiming(header string) (PhaseBreakdown, error) {
	var p PhaseBreakdown
	recognised := 0
	for _, entry := range strings.Split(header, ",") {
		params := strings.Split(entry, ";")
		var dur string
		found := false
		for _, param := range params[1:] {
			if k, v, ok := strings.Cut(param, "="); ok && strings.TrimSpace(k) == "dur" {
				dur, found = strings.TrimSpace(v), true
				break
			}
		}
		if !found {
			continue
		}
		// Every metric is a non-negative duration, count or energy.
		// Past 2^53 ns (about 104 days) a float64 no longer holds every
		// nanosecond, so larger values could not round-trip; negative,
		// non-finite or larger values are malformed.
		v, err := strconv.ParseFloat(dur, 64)
		ns := v * float64(time.Millisecond)
		if err != nil || !(v >= 0) || ns >= 1<<53 {
			continue
		}
		switch strings.TrimSpace(params[0]) {
		case "batch":
			p.Batch = time.Duration(ns)
		case "queue":
			p.Queue = time.Duration(ns)
		case "compute":
			p.Compute = time.Duration(ns)
		case "readback":
			p.Readback = time.Duration(ns)
		case "priced":
			p.Priced = int(v)
		case "joules":
			// The dur= slot carries joules directly; the metric name,
			// not the slot, fixes the unit (see ServerTiming).
			p.Joules = v
		default:
			continue
		}
		recognised++
	}
	if recognised == 0 {
		return PhaseBreakdown{}, fmt.Errorf("serve: no recognised metrics in Server-Timing %q", header)
	}
	return p, nil
}

// Add accumulates another breakdown into p.
func (p *PhaseBreakdown) Add(o PhaseBreakdown) {
	p.Batch += o.Batch
	p.Queue += o.Queue
	p.Compute += o.Compute
	p.Readback += o.Readback
	p.Priced += o.Priced
	p.Joules += o.Joules
}

// PriceOptionsTimed prices a slice of contracts through the full serving
// path: cache lookup, admission control, micro-batching, backend shards.
// Results arrive in input order, with the request's per-phase latency
// breakdown, which the HTTP handler exports as a Server-Timing header.
// It returns ErrSaturated when admission would exceed the queue depth
// and ErrClosed during shutdown; the ctx cancelling abandons the wait
// (already-admitted work still completes and populates the cache).
func (s *Server) PriceOptionsTimed(ctx context.Context, opts []option.Option) ([]Result, PhaseBreakdown, error) {
	var phases PhaseBreakdown
	if s.closed.Load() {
		return nil, phases, ErrClosed
	}
	if len(opts) == 0 {
		return nil, phases, fmt.Errorf("serve: empty batch")
	}
	for i, o := range opts {
		if err := o.Validate(); err != nil {
			return nil, phases, fmt.Errorf("serve: contract %d: %w", i, err)
		}
	}

	tc := telemetry.TraceFromContext(ctx)
	reqID := tc.Req
	if s.tracer.Enabled() && reqID == 0 {
		reqID = s.tracer.NextID()
	}
	results := make([]Result, len(opts))
	var jobs []*job
	var jobIdx []int
	now := time.Now()
	for i, o := range opts {
		key := KeyFor(o, s.cfg.Steps)
		if price, ok := s.cache.get(key); ok {
			s.metrics.observeHit()
			results[i] = Result{Price: price, Cached: true, Backend: "cache"}
			continue
		}
		jobs = append(jobs, &job{opt: o, key: key, req: reqID, trace: tc.Trace, seq: i, enqueued: now, done: make(chan jobResult, 1)})
		jobIdx = append(jobIdx, i)
	}
	if len(jobs) == 0 {
		return results, phases, nil
	}

	// Admission: reject the whole request rather than partially queueing
	// it, so a client never waits on half a batch. A request too large
	// for an empty queue is rejected permanently — a Retry-After would
	// be a lie.
	n := int64(len(jobs))
	if n > int64(s.cfg.QueueDepth) {
		s.metrics.rejected.Add(1)
		return nil, phases, fmt.Errorf("%w: %d uncached contracts > depth %d", ErrBatchTooLarge, n, s.cfg.QueueDepth)
	}
	if s.queued.Add(n) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-n)
		s.metrics.rejected.Add(1)
		return nil, phases, ErrSaturated
	}

	// All of the request's misses enter the batcher in one call, so the
	// idle trigger never splits a request across batches.
	if err := s.submit(jobs); err != nil {
		// Shutdown raced us: none of the jobs made it in.
		s.queued.Add(-n)
		return nil, phases, err
	}

	// Drain every job's done channel even after a failure: sibling jobs
	// from this request are still in flight, and returning early would
	// silently discard their results and never observe their phase
	// metrics and spans. Only the caller's context abandons the wait
	// (the buffered channels keep the runners from blocking on us).
	var firstErr error
	var env phaseEnvelope
	for k, j := range jobs {
		select {
		case res := <-j.done:
			if res.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("serve: contract %d (%v): %w", jobIdx[k], j.opt, res.err)
				}
				continue
			}
			results[jobIdx[k]] = Result{Price: res.price, Backend: res.backend, ModelledJoules: res.joules, Retries: res.retries}
			env.add(j, s.observeDelivery(j, res, &phases))
		case <-ctx.Done():
			return nil, phases, ctx.Err()
		}
	}
	s.emitPhaseSpans(reqID, tc.Trace, env)
	if firstErr != nil {
		return nil, phases, firstErr
	}
	return results, phases, nil
}

// observeDelivery closes out one priced option on the requester side:
// it computes the four phase durations from the job's timestamps (the
// runner wrote them before sending on done), feeds the phase
// histograms, and books the option's modelled joules into the request
// ledger and the per-phase energy attribution. It returns when the
// result was received.
func (s *Server) observeDelivery(j *job, res jobResult, phases *PhaseBreakdown) time.Time {
	recv := time.Now()
	batchD := j.flushed.Sub(j.enqueued)
	queueD := j.picked.Sub(j.flushed)
	computeD := j.computed.Sub(j.picked)
	readbackD := recv.Sub(j.computed)
	phases.Batch += batchD
	phases.Queue += queueD
	phases.Compute += computeD
	phases.Readback += readbackD
	phases.Priced++
	phases.Joules += res.joules
	s.metrics.observePhases(batchD, queueD, computeD, readbackD)
	s.attributeJoules(res.joules, batchD, queueD, computeD, readbackD)
	return recv
}

// phaseEnvelope spans one request's priced options across the three
// requester-side phases: batch assembly from admission to the last
// flush, shard queueing from the first flush to the last pick, and
// readback from the first computed result to the last one received.
type phaseEnvelope struct {
	options                              int
	enqueued, firstFlushed, lastFlushed  time.Time
	lastPicked, firstComputed, lastRecvd time.Time
}

func (e *phaseEnvelope) add(j *job, recv time.Time) {
	if e.options == 0 {
		e.enqueued, e.firstFlushed, e.lastFlushed = j.enqueued, j.flushed, j.flushed
		e.lastPicked, e.firstComputed, e.lastRecvd = j.picked, j.computed, recv
	}
	e.options++
	if j.flushed.Before(e.firstFlushed) {
		e.firstFlushed = j.flushed
	}
	if j.flushed.After(e.lastFlushed) {
		e.lastFlushed = j.flushed
	}
	if j.picked.After(e.lastPicked) {
		e.lastPicked = j.picked
	}
	if j.computed.Before(e.firstComputed) {
		e.firstComputed = j.computed
	}
	if recv.After(e.lastRecvd) {
		e.lastRecvd = recv
	}
}

// emitPhaseSpans records one batch, queue and readback span for a
// request's priced options on the requests track. The compute spans
// were emitted by the chunk runners, one per shard batch.
func (s *Server) emitPhaseSpans(req uint64, trace string, env phaseEnvelope) {
	if !s.tracer.Enabled() || env.options == 0 {
		return
	}
	for _, ph := range []struct {
		name       string
		start, end time.Time
	}{
		{"batch", env.enqueued, env.lastFlushed},
		{"queue", env.firstFlushed, env.lastPicked},
		{"readback", env.firstComputed, env.lastRecvd},
	} {
		s.tracer.Emit(telemetry.Span{
			Req: req, Trace: trace, Name: ph.name, Proc: "host", Thread: "requests",
			Start: ph.start, Dur: ph.end.Sub(ph.start), Clock: telemetry.Wall,
			Attrs: map[string]any{"options": env.options},
		})
	}
}

// attributeJoules splits one option's modelled energy across the four
// pipeline phases proportionally to their wall durations, with the last
// share computed by subtraction so the four phase counters telescope
// exactly — not approximately — to the booked per-option total. The
// split answers "where did these joules go" in pipeline terms: energy
// spent while the option sat in batch assembly is the cost of batching,
// not of compute.
func (s *Server) attributeJoules(joules float64, batchD, queueD, computeD, readbackD time.Duration) {
	total := batchD + queueD + computeD + readbackD
	var jb, jq, jc float64
	if total > 0 {
		jb = joules * float64(batchD) / float64(total)
		jq = joules * float64(queueD) / float64(total)
		jc = joules * float64(computeD) / float64(total)
	}
	s.metrics.phaseJoules["batch"].add(jb)
	s.metrics.phaseJoules["queue"].add(jq)
	s.metrics.phaseJoules["compute"].add(jc)
	s.metrics.phaseJoules["readback"].add(joules - jb - jq - jc)
}

// Close drains the service: no new work is admitted, and every
// already-admitted option and every waiting run still starts as shard
// slots free. ctx bounds the drain: once it expires, whatever still
// waits in the FIFO fails with ErrClosed, and so does any retry that
// comes back later.
func (s *Server) Close(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.batcher.close()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.queued.Load() > 0 || s.batcher.pendingLen() > 0 {
		select {
		case <-ctx.Done():
			for _, e := range s.batcher.abandon() {
				if e.run != nil {
					e.run <- nil
					continue
				}
				s.deliverErr(e.job, "", ErrClosed)
			}
			return fmt.Errorf("serve: drain interrupted with %d options in flight: %w", s.queued.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	s.wg.Wait()
	return nil
}
