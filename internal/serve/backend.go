package serve

import (
	"fmt"
	"log/slog"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"binopt/internal/accel"
	"binopt/internal/option"
	"binopt/internal/telemetry"
)

// BackendConfig describes one pricing shard: a platform engine from the
// accel registry, a modelled accelerator of the paper's test
// environment. The shard executes on that engine — probed against the
// real simulated kernel and metering device counters — so results are
// exact and identical across shards while each shard's substrate
// activity is accounted separately. The engine's estimate also drives
// placement (the cheapest shard per option with an idle worker is
// offered work first, then the fastest to drain) and the energy
// accounting (modelled joules per option = power / throughput).
type BackendConfig struct {
	// Name labels the shard in responses and metrics; DefaultBackends
	// uses the accel registry name.
	Name string
	// Engine prices this shard's work (bit-identical to the reference
	// lattice, with counter accounting). New rejects a shard without one.
	Engine *accel.Engine
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
		out = append(out, BackendConfig{Name: d.Name, Engine: eng, Workers: workers})
	}
	return out, nil
}

// backend is a running shard: a bounded batch queue drained by Workers
// goroutines, with a circuit breaker tracking its rolling health.
type backend struct {
	cfg    BackendConfig
	jobs   chan []*job
	joules float64 // modelled joules per option on this device
	rate   float64 // modelled options per second on this device
	// pending counts options dispatched to this shard (those of work
	// onShard is running included) and not yet completed or failed
	// over; admission reads it to estimate drain time.
	pending atomic.Int64
	// inflight counts work holding a slot on this shard: batches queued
	// or executing, and work onShard is running on its engine. Fewer
	// than Workers in flight means a worker is idle, which energy-first
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
	return &backend{
		cfg:     cfg,
		jobs:    make(chan []*job, cfg.QueueDepth),
		joules:  cfg.Engine.ModelledJoulesPerOption(),
		rate:    cfg.Engine.Estimate().OptionsPerSec,
		priced:  m.backendCounter(cfg.Name),
		errs:    m.backendErrCounter(cfg.Name),
		breaker: newBreaker(bcfg),
	}
}

// drainScore estimates how long this shard's backlog takes to clear under
// its modelled throughput — the admission signal. Lower is better.
func (be *backend) drainScore() float64 {
	rate := be.rate
	if rate <= 0 {
		rate = 1
	}
	return float64(be.pending.Load()+1) / rate
}

// submit hands one request's cache misses to the batcher and
// dispatches what it releases: every full chunk, and the remainder
// when a placement candidate has an idle worker.
func (s *Server) submit(jobs []*job) error {
	batches, err := s.batcher.add(jobs)
	if err != nil {
		return err
	}
	for _, batch := range batches {
		s.dispatchBatch(batch)
	}
	return nil
}

// kick follows every release of a shard slot: it hands the batcher's
// oldest buffered chunk, if any, to placement. Its callers — a batch
// worker, the shard runner — free their slot first, which is what
// makes the batcher's idle trigger lose no wakeup.
func (s *Server) kick() {
	if batch := s.batcher.next(); batch != nil {
		s.dispatchBatch(batch)
	}
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

// idle reports whether the batcher's idle trigger may fire: some shard
// in place's candidate set has an idle worker.
func (s *Server) idle() bool {
	return slices.ContainsFunc(s.candidates(nil), (*backend).idle)
}

// candidates is place's candidate set: the breaker-eligible shards
// minus exclude (the shard a retried attempt just failed on). If the
// breakers have shed everything, every shard but exclude is a
// candidate again — a fully dark pool should still try rather than
// park work — and a one-shard pool keeps its only shard.
func (s *Server) candidates(exclude *backend) []*backend {
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
	return cands
}

// place is the pool's one placement policy, shared by contract batches
// and the work onShard runs, over the candidates above. The work is
// offered to each candidate until take accepts it: energy-first, the
// lowest-joules shard with an idle worker (take(be, true)), so the
// cheap devices take the load before a faster, hungrier one is woken;
// failing that, in modelled-drain-time order, the first shard with
// room left (take(be, false)). place returns the shard that accepted,
// or nil when both passes declined, plus the candidates in drain-time
// order.
func (s *Server) place(exclude *backend, take func(be *backend, idleOnly bool) bool) (*backend, []*backend) {
	cands := s.candidates(exclude)
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
// candidate declines, the batch waits for a queue in await on its own
// goroutine: dispatch never blocks, so a batch worker handing on
// buffered work cannot stall on the queues the workers drain. The
// waiting goroutine joins the workers' WaitGroup, and its jobs stay
// admitted, so Close waits for it either way.
func (s *Server) dispatch(batch []*job, exclude *backend) {
	be, cands := s.place(exclude, func(be *backend, idleOnly bool) bool { return be.offer(batch, idleOnly) })
	if be == nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.await(batch, cands)
		}()
	}
}

// await selects across *every* candidate's queue at once, so the batch
// lands on whichever shard frees up first instead of blocking on one
// queue chosen from by-then-stale drain scores. The shutdown-abort
// channel participates in the same select: a send abandoned at shutdown
// fails the batch's jobs with ErrClosed and rolls back their admission,
// rather than leaking them (and a pending count) on a queue nobody
// drains.
//
// A shard's pending and inflight counts are booked only once its send
// is certain, so the abandoned send has nothing to roll back there.
func (s *Server) await(batch []*job, cands []*backend) {
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
	be := cands[chosen-1]
	be.inflight.Add(1)
	be.pending.Add(int64(len(batch)))
}

// onShard is the shard runner for work that runs on an engine from its
// request goroutine: a scenario revaluation, or one round of an
// implied-vol curve. It places the work with place, the policy contract
// batches follow, and returns the shard whose engine run succeeded on.
// The work holds a reserve slot of n options on its shard while run
// executes, so contract dispatch and Retry-After see the load, and
// kicks the batcher once it releases the slot, as a batch worker does.
// It returns ErrClosed once Close has begun and ErrSaturated when no
// shard has a slot left. A failed attempt is booked the way failJob
// books one — breaker, shard and node error counters, retry counter —
// and run moves, after retryBackoff, to the best shard other than the
// one it failed on, within MaxAttempts.
func (s *Server) onShard(n int64, log *slog.Logger, run func(*accel.Engine) error) (*backend, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	var failed *backend
	for attempt := 1; ; attempt++ {
		be, _ := s.place(failed, func(be *backend, idleOnly bool) bool { return be.reserve(n, idleOnly) })
		if be == nil {
			s.metrics.rejected.Add(1)
			return nil, ErrSaturated
		}
		err := run(be.cfg.Engine)
		be.release(n)
		s.kick()
		if err == nil {
			be.breaker.onSuccess()
			return be, nil
		}
		be.breaker.onFailure()
		be.errs.Add(1)
		s.metrics.priceErrors.Add(1)
		if attempt >= s.cfg.MaxAttempts {
			return nil, fmt.Errorf("%d attempt(s) failed, last on %s: %w", attempt, be.cfg.Name, err)
		}
		s.metrics.retries.Add(1)
		backoff := retryBackoff(s.cfg.RetryBackoff, attempt)
		log.Warn("shard attempt failed, retrying on another shard",
			"backend", be.cfg.Name, "attempt", attempt, "backoff", backoff.String(), "error", err.Error())
		time.Sleep(backoff)
		failed = be
	}
}

// reserve claims one in-flight slot of n options on the shard: with
// idleOnly only while a worker is idle, otherwise while the shard's
// declared capacity — Workers executing plus QueueDepth queued — has
// room. Batches hold the slot from offer until their worker finishes;
// work run by onShard holds it until release.
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

// idle reports whether one of the shard's workers has nothing to run.
func (be *backend) idle() bool {
	return be.inflight.Load() < int64(be.cfg.Workers)
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

// worker drains batches from one shard until its queue closes. Each
// batch is priced, then the worker frees its slot and kicks the
// batcher before it settles a single job: a closed-loop client's next
// request then finds this shard idle instead of spilling to a dearer
// one, and work buffered while every worker was busy moves on at once.
// Settling caches, meters and delivers the results; failed pricings
// are booked against the shard's breaker and handed to failover.
func (s *Server) worker(be *backend) {
	defer s.wg.Done()
	for batch := range be.jobs {
		prices, errs := s.price(be, batch)
		be.inflight.Add(-1)
		s.kick()
		for i, j := range batch {
			if errs != nil && errs[i] != nil {
				s.failJob(be, j, errs[i])
				continue
			}
			s.settle(be, j, prices[i])
		}
	}
}

// price runs one batch on the shard's engine and returns its prices,
// plus per-job errors (nil when the submission priced). The whole batch,
// traced or not, is one submission to the engine's batch pricer, which
// sweeps groups of up to four options through one shared
// quad-interleaved sweep and spreads the groups over GOMAXPROCS
// goroutines. If the submission fails, a lone job fails as it stands:
// there is nothing to isolate, and a re-run would draw the fault hook
// twice for one attempt. A larger batch re-runs its jobs one by one on
// the engine, still holding the shard's slot, so the breaker and
// failover see exactly which option failed instead of failing the
// whole batch over.
func (s *Server) price(be *backend, batch []*job) ([]float64, []error) {
	engine := be.cfg.Engine
	picked := time.Now()
	opts := make([]option.Option, len(batch))
	for i, j := range batch {
		j.picked = picked
		opts[i] = j.opt
	}
	prices, dtr, err := engine.PriceBatchTraced(opts, 0)
	computed := time.Now()
	switch {
	case err == nil:
		s.metrics.batchPriced.Add(int64(len(batch)))
		s.emitComputeSpan(be, batch, picked, computed)
		s.emitDeviceSpans(batch, dtr)
		for _, j := range batch {
			j.computed = computed
		}
		return prices, nil
	case len(batch) == 1:
		batch[0].computed = computed
		return nil, []error{err}
	}
	prices = make([]float64, len(batch))
	errs := make([]error, len(batch))
	for i, j := range batch {
		j.picked = time.Now()
		prices[i], errs[i] = engine.Price(j.opt)
		j.computed = time.Now()
		if errs[i] == nil {
			s.emitComputeSpan(be, batch[i:i+1], j.picked, j.computed)
		}
	}
	return prices, errs
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
		all += be.rate
		if st, _ := be.breaker.snapshot(); st != breakerOpen {
			sum += be.rate
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
