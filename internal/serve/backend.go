package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"binopt/internal/accel"
	"binopt/internal/option"
	"binopt/internal/perf"
	"binopt/internal/telemetry"
)

// BackendConfig describes one pricing shard: a modelled accelerator from
// the paper's test environment. The estimate drives admission (the
// cheapest shard per option with an idle worker is offered work first,
// then the fastest to drain) and the energy accounting (modelled joules
// per option = power / throughput). When Engine is set the shard
// executes on that platform's calibrated engine — probed against the real
// simulated kernel and metering device counters — so results are exact
// and identical across shards while each shard's substrate activity is
// accounted separately.
type BackendConfig struct {
	// Name labels the shard in responses and metrics; DefaultBackends
	// uses the accel registry name.
	Name string
	// Kind classifies the substrate ("fpga", "gpu", "cpu", "embedded").
	Kind string
	// Estimate is the modelled throughput/power row for this device.
	Estimate perf.Estimate
	// Engine, when set, prices this shard's work on the platform engine
	// (bit-identical to the reference lattice, with counter accounting).
	// When nil the shard prices on the server's reference engine.
	Engine *accel.Engine
	// PriceFunc overrides this shard's kernel alone — the fault-
	// tolerance tests use it to make exactly one shard misbehave. A
	// shard with a PriceFunc is skipped by the startup parity check and
	// has no modelled device timeline.
	PriceFunc func(option.Option) (float64, error)
	// Workers is the number of concurrent batch executors (default 1).
	Workers int
	// QueueDepth bounds the shard's batch queue (default 32 batches).
	QueueDepth int
}

// DefaultBackends builds the serving pool from the accel registry at the
// given tree depth: every registered platform — the DE4's kernel IV.B
// (the energy-efficiency winner), the GTX660's kernel IV.B (the
// throughput winner), the Xeon software reference, and any extra
// registered target such as the §VI embedded SoC — becomes one shard
// executing on its own platform engine: the heterogeneous pool a
// data-centre deployment of the paper's design would schedule across.
func DefaultBackends(steps int) ([]BackendConfig, error) {
	if steps < 1 {
		return nil, fmt.Errorf("serve: lattice depth must be a positive number of steps, got %d", steps)
	}
	platforms := accel.Platforms()
	out := make([]BackendConfig, 0, len(platforms))
	for _, p := range platforms {
		d := p.Describe()
		eng, err := p.NewEngine(steps)
		if err != nil {
			return nil, fmt.Errorf("serve: backend %s: %w", d.Name, err)
		}
		workers := 1
		if d.Kind == "fpga" || d.Kind == "gpu" {
			workers = 2
		}
		out = append(out, BackendConfig{
			Name:     d.Name,
			Kind:     d.Kind,
			Estimate: eng.Estimate(),
			Engine:   eng,
			Workers:  workers,
		})
	}
	return out, nil
}

// backend is a running shard: a bounded batch queue drained by Workers
// goroutines, with a circuit breaker tracking its rolling health.
type backend struct {
	cfg    BackendConfig
	jobs   chan []*job
	joules float64 // modelled joules per option on this device
	// pending counts options dispatched to this shard (a running
	// revaluation's contracts included) and not yet completed or failed
	// over; admission reads it to estimate drain time.
	pending atomic.Int64
	// inflight counts work holding a slot on this shard: batches queued
	// or executing, and revaluations running on its engine. Fewer than
	// Workers in flight means a worker is idle, which energy-first
	// placement looks for.
	inflight atomic.Int64
	priced   *atomic.Int64 // metrics counter: options priced here
	errs     *atomic.Int64 // metrics counter: pricing attempts failed here
	breaker  *breaker
}

func newBackend(cfg BackendConfig, m *metrics, bcfg BreakerConfig) *backend {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	var joules float64
	switch {
	case cfg.Engine != nil:
		joules = cfg.Engine.ModelledJoulesPerOption()
	case cfg.Estimate.OptionsPerSec > 0:
		joules = cfg.Estimate.PowerWatts / cfg.Estimate.OptionsPerSec
	}
	return &backend{
		cfg:     cfg,
		jobs:    make(chan []*job, cfg.QueueDepth),
		joules:  joules,
		priced:  m.backendCounter(cfg.Name),
		errs:    m.backendErrCounter(cfg.Name),
		breaker: newBreaker(bcfg),
	}
}

// drainScore estimates how long this shard's backlog takes to clear under
// its modelled throughput — the admission signal. Lower is better.
func (be *backend) drainScore() float64 {
	rate := be.cfg.Estimate.OptionsPerSec
	if rate <= 0 {
		rate = 1
	}
	return float64(be.pending.Load()+1) / rate
}

// dispatchBatch routes one freshly flushed batch into the pool.
func (s *Server) dispatchBatch(batch []*job) {
	if len(batch) == 0 {
		return
	}
	s.metrics.batchSize.Observe(float64(len(batch)))
	now := time.Now()
	for _, j := range batch {
		j.flushed = now
	}
	s.dispatch(batch, nil)
}

// place is the pool's one placement policy, shared by contract batches
// and scenario revaluations. The candidates are the breaker-eligible
// shards minus `exclude` (the shard a retried attempt just failed on);
// if the breakers have shed everything, every shard but `exclude` is a
// candidate again — a fully dark pool should still try rather than
// park work — and a one-shard pool keeps its only shard.
//
// The work is offered to each candidate until take accepts it:
// energy-first, the lowest-joules shard with an idle worker
// (take(be, true)), so the cheap devices take the load before a faster,
// hungrier one is woken; failing that, in modelled-drain-time order,
// the first shard with room left (take(be, false)). place returns the
// shard that accepted, or nil when both passes declined, plus the
// candidates in drain-time order.
func (s *Server) place(exclude *backend, take func(be *backend, idleOnly bool) bool) (*backend, []*backend) {
	cands := make([]*backend, 0, len(s.backends))
	for _, be := range s.backends {
		if be != exclude && be.breaker.eligible() {
			cands = append(cands, be)
		}
	}
	if len(cands) == 0 {
		for _, be := range s.backends {
			if be != exclude {
				cands = append(cands, be)
			}
		}
	}
	if len(cands) == 0 {
		cands = append(cands, s.backends...)
	}

	sort.SliceStable(cands, func(i, j int) bool { return cands[i].joules < cands[j].joules })
	for _, be := range cands {
		if take(be, true) {
			return be, cands
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].drainScore() < cands[j].drainScore() })
	for _, be := range cands {
		if take(be, false) {
			return be, cands
		}
	}
	return nil, cands
}

// dispatch places a batch on a shard queue through place. If every
// candidate declines, a select across *every* candidate's queue at
// once follows, so the batch lands on whichever shard frees up first
// instead of blocking on one queue chosen from by-then-stale drain
// scores. The shutdown-abort channel participates in the same select: a
// send abandoned at shutdown fails the batch's jobs with ErrClosed and
// rolls back their admission, rather than leaking them (and a pending
// count) on a queue nobody drains.
//
// On that path a shard's pending and inflight counts are booked only
// once its send is certain, so the abandoned send has nothing to roll
// back there.
func (s *Server) dispatch(batch []*job, exclude *backend) {
	be, cands := s.place(exclude, func(be *backend, idleOnly bool) bool { return be.offer(batch, idleOnly) })
	if be != nil {
		return
	}

	cases := make([]reflect.SelectCase, 0, len(cands)+1)
	cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.aborted)})
	bv := reflect.ValueOf(batch)
	for _, be := range cands {
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectSend, Chan: reflect.ValueOf(be.jobs), Send: bv})
	}
	chosen, _, _ := reflect.Select(cases)
	if chosen == 0 {
		// Shutdown abandoned the send: fail the jobs and undo admission.
		for _, j := range batch {
			s.queued.Add(-1)
			j.done <- jobResult{retries: j.retries, err: ErrClosed}
		}
		return
	}
	be = cands[chosen-1]
	be.inflight.Add(1)
	be.pending.Add(int64(len(batch)))
}

// reserve claims one in-flight slot of n options on the shard: with
// idleOnly only while a worker is idle, otherwise while the shard's
// declared capacity — Workers executing plus QueueDepth queued — has
// room. Batches hold the slot from offer until their worker finishes;
// a revaluation, which runs on the shard's engine from its request
// goroutine, holds it until release.
func (be *backend) reserve(n int64, idleOnly bool) bool {
	limit := int64(be.cfg.Workers)
	if !idleOnly {
		limit += int64(be.cfg.QueueDepth)
	}
	if be.inflight.Add(1) > limit {
		be.inflight.Add(-1)
		return false
	}
	be.pending.Add(n)
	return true
}

// release returns a slot taken by reserve.
func (be *backend) release(n int64) {
	be.pending.Add(-n)
	be.inflight.Add(-1)
}

// offer sends batch to the shard's queue without blocking and reports
// whether it was taken, holding a reserve slot while it is in flight.
func (be *backend) offer(batch []*job, idleOnly bool) bool {
	n := int64(len(batch))
	if !be.reserve(n, idleOnly) {
		return false
	}
	select {
	case be.jobs <- batch:
		return true
	default:
		be.release(n)
		return false
	}
}

// shardKernel resolves the pricing function one shard's workers run: a
// per-shard PriceFunc override first (fault tests), then the server-
// wide override (stub tests keep their injected kernel), then the
// shard's platform engine, then the server's reference engine. Only the
// engine path prices whole batches and has a modelled device timeline.
func (s *Server) shardKernel(be *backend) (func(option.Option) (float64, error), *accel.Engine) {
	switch {
	case be.cfg.PriceFunc != nil:
		return be.cfg.PriceFunc, nil
	case s.cfg.PriceFunc != nil:
		return s.priceFn, nil
	case be.cfg.Engine != nil:
		return be.cfg.Engine.Price, be.cfg.Engine
	default:
		return s.priceFn, nil
	}
}

// worker drains batches from one shard until its queue closes. A shard
// with a platform engine submits every batch, traced or not, to the
// engine's quad-interleaved batch pricer; a shard without one prices
// job by job on its kernel. Results are cached, metered, and delivered
// on each job's buffered channel; failed pricings are metered against
// the shard's breaker and handed to failover.
func (s *Server) worker(be *backend) {
	defer s.wg.Done()
	priceFn, engine := s.shardKernel(be)
	for batch := range be.jobs {
		if engine != nil {
			s.runBatch(be, batch, engine)
		} else {
			for _, j := range batch {
				s.runJob(be, j, priceFn)
			}
		}
		be.inflight.Add(-1)
	}
}

// runBatch prices one micro-batch as one submission to the shard
// engine's batch pricer, which sweeps groups of up to four options
// through one shared quad-interleaved sweep and spreads the groups over
// GOMAXPROCS goroutines. If the submission fails, a lone job goes
// straight to failover: there is nothing to isolate, and a re-run would
// draw the fault hook twice for one attempt. A larger batch re-runs its
// jobs one by one, so the breaker and failover see exactly which option
// failed instead of failing the whole batch over.
func (s *Server) runBatch(be *backend, batch []*job, engine *accel.Engine) {
	picked := time.Now()
	opts := make([]option.Option, len(batch))
	for i, j := range batch {
		j.picked = picked
		opts[i] = j.opt
	}
	prices, dtr, err := engine.PriceBatchTraced(opts, 0)
	computed := time.Now()
	if err != nil {
		if len(batch) == 1 {
			batch[0].computed = computed
			s.failJob(be, batch[0], err)
			return
		}
		for _, j := range batch {
			s.runJob(be, j, engine.Price)
		}
		return
	}
	s.metrics.batchPriced.Add(int64(len(batch)))
	s.emitComputeSpan(be, batch, picked, computed)
	s.emitDeviceSpans(batch, dtr)
	for i, j := range batch {
		j.computed = computed
		s.settle(be, j, prices[i])
	}
}

// runJob prices one job on one shard and settles its outcome.
func (s *Server) runJob(be *backend, j *job, priceFn func(option.Option) (float64, error)) {
	j.picked = time.Now()
	price, err := priceFn(j.opt)
	j.computed = time.Now()
	if err != nil {
		s.failJob(be, j, err)
		return
	}
	s.emitComputeSpan(be, []*job{j}, j.picked, j.computed)
	s.settle(be, j, price)
}

// settle delivers one priced job: success feeds the breaker, the cache,
// the metrics and the requester. Non-finite prices are never cached:
// they indicate an engine fault that should not be pinned into the
// serving path.
func (s *Server) settle(be *backend, j *job, price float64) {
	be.breaker.onSuccess()
	if !math.IsNaN(price) && !math.IsInf(price, 0) {
		s.cache.put(j.key, price)
	}
	s.metrics.observeOption(j.computed.Sub(j.enqueued), j.computed.Unix(), be.joules, be.priced, j.trace)
	be.pending.Add(-1)
	s.queued.Add(-1)
	j.done <- jobResult{price: price, backend: be.cfg.Name, joules: be.joules, retries: j.retries, err: nil}
}

// failJob books one failed pricing attempt against the shard's breaker
// and error counters, then hands the job to failover.
func (s *Server) failJob(be *backend, j *job, err error) {
	be.breaker.onFailure()
	be.errs.Add(1)
	s.metrics.priceErrors.Add(1)
	s.emitErrorSpan(j, be, err)
	s.failover(be, j, err)
}

// failover settles a failed pricing attempt: within the attempt budget
// the job is re-dispatched — after an exponential backoff — to the
// next-best shard whose breaker admits it (bit-identical results across
// shards are what make silent failover safe); past the budget the
// requester gets the error. The job keeps holding its admission slot
// (s.queued) throughout, so graceful drain waits for in-flight retries.
func (s *Server) failover(be *backend, j *job, err error) {
	be.pending.Add(-1)
	attempts := j.retries + 1
	if attempts >= s.cfg.MaxAttempts {
		s.queued.Add(-1)
		j.done <- jobResult{
			backend: be.cfg.Name,
			retries: j.retries,
			err:     fmt.Errorf("%d attempt(s) failed, last on %s: %w", attempts, be.cfg.Name, err),
		}
		return
	}
	j.retries++
	s.metrics.retries.Add(1)
	backoff := retryBackoff(s.cfg.RetryBackoff, j.retries)
	s.emitRetrySpan(j, be, backoff, err)
	// The backoff timer, not the worker, re-dispatches: the shard's
	// other queued jobs must not wait out this job's penalty.
	time.AfterFunc(backoff, func() { s.dispatch([]*job{j}, be) })
}

// retryBackoff is base<<(retry-1), clamped so a misconfigured attempt
// budget cannot shift into overflow.
func retryBackoff(base time.Duration, retry int) time.Duration {
	if retry > 16 {
		retry = 16
	}
	return base << (retry - 1)
}

// emitComputeSpan records the worker-side compute span of one priced
// batch on the host clock, on the shard's own track. It is stitched to
// the batch's first request and lists every request it served.
func (s *Server) emitComputeSpan(be *backend, batch []*job, picked, computed time.Time) {
	if !s.tracer.Enabled() {
		return
	}
	j := batch[0]
	s.tracer.Emit(telemetry.Span{
		Req: j.req, Trace: j.trace, Name: "compute", Proc: "host", Thread: "backend " + be.cfg.Name,
		Start: picked, Dur: computed.Sub(picked), Clock: telemetry.Wall,
		Attrs: map[string]any{
			"backend": be.cfg.Name,
			"options": len(batch),
			"reqs":    batchReqs(batch),
			"steps":   s.cfg.Steps,
			"joules":  be.joules * float64(len(batch)),
		},
	})
}

// batchReqs lists the distinct request groups a batch serves, in order.
func batchReqs(batch []*job) []uint64 {
	var reqs []uint64
	for _, j := range batch {
		if !slices.Contains(reqs, j.req) {
			reqs = append(reqs, j.req)
		}
	}
	return reqs
}

// emitErrorSpan records one failed pricing attempt on the shard's
// track, so a failed-then-recovered option reads as error → retry →
// compute in /debug/trace.
func (s *Server) emitErrorSpan(j *job, be *backend, err error) {
	if !s.tracer.Enabled() {
		return
	}
	s.tracer.Emit(telemetry.Span{
		Req: j.req, Trace: j.trace, Name: "error", Proc: "host", Thread: "backend " + be.cfg.Name,
		Start: j.picked, Dur: j.computed.Sub(j.picked), Clock: telemetry.Wall,
		Attrs: map[string]any{
			"backend": be.cfg.Name,
			"opt":     j.seq,
			"attempt": j.retries + 1,
			"error":   err.Error(),
		},
	})
}

// emitRetrySpan records the backoff interval between a failed attempt
// and its re-dispatch, on the requests track.
func (s *Server) emitRetrySpan(j *job, be *backend, backoff time.Duration, err error) {
	if !s.tracer.Enabled() {
		return
	}
	s.tracer.Emit(telemetry.Span{
		Req: j.req, Trace: j.trace, Name: "retry", Proc: "host", Thread: "requests",
		Start: j.computed, Dur: backoff, Clock: telemetry.Wall,
		Attrs: map[string]any{
			"failed_backend": be.cfg.Name,
			"opt":            j.seq,
			"attempt":        j.retries,
			"backoff":        backoff.String(),
			"error":          err.Error(),
		},
	})
}

// emitDeviceSpans records one batch submission's modelled device
// timeline: an enclosing submission span sized in options and quad
// groups, plus one span per modelled command, all on the backend's
// virtual device clock and stitched like the batch's compute span.
func (s *Server) emitDeviceSpans(batch []*job, dtr accel.DeviceTrace) {
	if !s.tracer.Enabled() {
		return
	}
	j := batch[0]
	proc := "device:" + dtr.Backend
	s.tracer.Emit(telemetry.Span{
		Req: j.req, Trace: j.trace, Name: "submission", Proc: proc, Thread: "device clock",
		DevStart: dtr.Start, DevDur: dtr.End - dtr.Start, Clock: telemetry.Device,
		Attrs: map[string]any{
			"backend":     dtr.Backend,
			"options":     dtr.Options,
			"quad_groups": dtr.QuadGroups,
			"steps":       s.cfg.Steps,
		},
	})
	for _, c := range dtr.Commands {
		s.tracer.Emit(telemetry.Span{
			Req: j.req, Trace: j.trace, Name: c.Name, Proc: proc, Thread: "cl queue",
			DevStart: c.Start, DevDur: c.End - c.Start, Clock: telemetry.Device,
			Attrs: map[string]any{
				"backend":  dtr.Backend,
				"queued_s": c.Queued,
				"submit_s": c.Submit,
			},
		})
	}
}

// aggregateRate is the pool's modelled throughput with open-breaker
// shards excluded — a shard the dispatcher is routing around must not
// inflate the drain rate behind Retry-After, or 429s would promise
// capacity a partial outage cannot deliver. A fully open pool falls
// back to the full sum rather than advertise zero.
func (s *Server) aggregateRate() float64 {
	var sum, all float64
	for _, be := range s.backends {
		rate := be.cfg.Estimate.OptionsPerSec
		all += rate
		if st, _ := be.breaker.snapshot(); st != breakerOpen {
			sum += rate
		}
	}
	if sum <= 0 {
		sum = all
	}
	if sum <= 0 {
		return 1
	}
	return sum
}

// breakerStats snapshots every shard's breaker for /metrics.
func (s *Server) breakerStats() []breakerStat {
	out := make([]breakerStat, 0, len(s.backends))
	for _, be := range s.backends {
		st, opens := be.breaker.snapshot()
		out = append(out, breakerStat{backend: be.cfg.Name, state: st, opens: opens})
	}
	return out
}
