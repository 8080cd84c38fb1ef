package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
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
// placement (waiting work starts on the cheapest shard per option with
// an idle worker) and the energy accounting (modelled joules per option
// = power / throughput).
type BackendConfig struct {
	// Name labels the shard in responses and metrics; DefaultBackends
	// uses the accel registry name.
	Name string
	// Engine prices this shard's work (bit-identical to the reference
	// lattice, with counter accounting). New rejects a shard without one.
	Engine *accel.Engine
	// Workers is the number of pieces of work — contract batches,
	// revaluations, curve rounds — the shard runs at once (default 1).
	Workers int
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

// backend is a running shard: Workers slots that waiting work claims
// from the batcher's FIFO, with a circuit breaker tracking its rolling
// health.
type backend struct {
	cfg    BackendConfig
	joules float64 // modelled joules per option on this device
	rate   float64 // modelled options per second on this device
	// pending counts options running on this shard and not yet
	// completed or failed over; /healthz reports it.
	pending atomic.Int64
	// inflight counts the shard's claimed slots: work started on it and
	// not yet released. Fewer than Workers means a worker is idle.
	inflight atomic.Int64
	priced   *atomic.Int64 // metrics counter: options priced here
	errs     *atomic.Int64 // metrics counter: pricing attempts failed here
	breaker  *breaker
}

func newBackend(cfg BackendConfig, m *metrics, bcfg BreakerConfig) *backend {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &backend{
		cfg:     cfg,
		joules:  cfg.Engine.ModelledJoulesPerOption(),
		rate:    cfg.Engine.Estimate().OptionsPerSec,
		priced:  m.backendCounter(cfg.Name),
		errs:    m.backendErrCounter(cfg.Name),
		breaker: newBreaker(bcfg),
	}
}

// idle reports whether one of the shard's workers has nothing to run.
func (be *backend) idle() bool {
	return be.inflight.Load() < int64(be.cfg.Workers)
}

// submit queues one request's cache misses in the batcher's FIFO and
// starts whatever idle slots fit.
func (s *Server) submit(jobs []*job) error {
	if err := s.batcher.add(jobs); err != nil {
		return err
	}
	s.pump()
	return nil
}

// pump starts waiting work, oldest first, while an idle slot fits it:
// a chunk of contract jobs on a runner goroutine of its own, or a run
// handed back to the request goroutine waiting in onShard. It follows
// every arrival and every slot release.
func (s *Server) pump() {
	for {
		be, batch, r := s.batcher.next(s.claim)
		switch {
		case r != nil:
			r <- be
		case batch != nil:
			s.metrics.batchSize.Observe(float64(len(batch)))
			now := time.Now()
			for _, j := range batch {
				j.flushed = now
			}
			be.pending.Add(int64(len(batch)))
			s.wg.Add(1)
			go s.execute(be, batch)
		default:
			return
		}
	}
}

// release frees a slot claimed by the pump and pumps, so the oldest
// waiting work that fits takes it at once.
func (s *Server) release(be *backend) {
	be.inflight.Add(-1)
	s.pump()
}

// claim is the pool's one placement policy, shared by contract batches
// and engine runs: it takes an idle slot on the cheapest candidate by
// modelled joules per option, so the cheap devices take the load
// before a faster, hungrier one is woken, and returns nil when every
// candidate is busy. Only the batcher calls it, under its lock, so no
// two claims interleave; releases only ever make a shard idler.
func (s *Server) claim(exclude *backend) *backend {
	var best *backend
	for _, be := range s.candidates(exclude) {
		if be.idle() && (best == nil || be.joules < best.joules) {
			best = be
		}
	}
	if best != nil {
		best.inflight.Add(1)
	}
	return best
}

// candidates is claim's candidate set: the breaker-eligible shards
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

// execute prices one chunk on the slot the pump claimed for it. It
// frees the slot and pumps before it settles a single job: a
// closed-loop client's next request then finds this shard idle instead
// of spilling to a dearer one, and work that waited while every worker
// was busy moves on at once. Settling caches, meters and delivers the
// results; failed pricings go to failJob.
func (s *Server) execute(be *backend, batch []*job) {
	defer s.wg.Done()
	prices, errs := s.price(be, batch)
	s.release(be)
	for i, j := range batch {
		if errs != nil && errs[i] != nil {
			s.failJob(be, j, errs[i])
			continue
		}
		s.settle(be, j, prices[i])
	}
}

// onShard is the shard runner for work that runs on an engine from its
// request goroutine: a scenario revaluation, or one round of an
// implied-vol curve. The run starts at once on an idle slot when
// nothing waits ahead of it, and otherwise waits in the batcher's FIFO
// like contract work until the pump claims it one. It holds the slot
// and n pending options while price executes, and releases the slot
// before it returns. It returns the shard whose engine the run
// succeeded on; ErrClosed once Close has begun or abandoned the wait;
// ErrSaturated when as many runs already wait as the pool has worker
// slots. A failed attempt goes through failed, as a contract job's
// does, and after retryBackoff returns to the FIFO's head to start on
// any shard but the one it failed on.
func (s *Server) onShard(n int64, log *slog.Logger, price func(*accel.Engine) error) (*backend, error) {
	r := make(chan *backend, 1)
	be, err := s.batcher.addRun(r, s.claim)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			s.metrics.rejected.Add(1)
		}
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		if be == nil {
			s.pump()
			if be = <-r; be == nil {
				return nil, ErrClosed
			}
		}
		be.pending.Add(n)
		err := price(be.cfg.Engine)
		be.pending.Add(-n)
		s.release(be)
		if err == nil {
			be.breaker.onSuccess()
			return be, nil
		}
		if final := s.failed(be, err, attempt); final != nil {
			return nil, final
		}
		backoff := retryBackoff(s.cfg.RetryBackoff, attempt)
		log.Warn("shard attempt failed, retrying on another shard",
			"backend", be.cfg.Name, "attempt", attempt, "backoff", backoff.String(), "error", err.Error())
		time.Sleep(backoff)
		if err := s.batcher.retry(entry{run: r, exclude: be}); err != nil {
			return nil, err
		}
		be = nil
	}
}

// failed is the one failure path of contract jobs and engine runs. A
// contract with no valid lattice at the server's depth
// (option.ErrProbabilityRange) fails the same way on every shard, so
// it is the client's fault: failed books nothing and returns it as the
// final error. Any other error is booked as one failed attempt on be —
// breaker, shard and node error counters — and failed returns nil while
// the attempt budget allows a retry on another shard (counted), or the
// final error once it is spent.
func (s *Server) failed(be *backend, err error, attempt int) error {
	if errors.Is(err, option.ErrProbabilityRange) {
		return err
	}
	be.breaker.onFailure()
	be.errs.Add(1)
	s.metrics.priceErrors.Add(1)
	if attempt >= s.cfg.MaxAttempts {
		return fmt.Errorf("%d attempt(s) failed, last on %s: %w", attempt, be.cfg.Name, err)
	}
	s.metrics.retries.Add(1)
	return nil
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

// failJob settles a failed pricing attempt: within the attempt budget
// the job goes back to the FIFO's head — after an exponential backoff —
// to start on any shard but this one (bit-identical results across
// shards are what make silent failover safe); otherwise the requester
// gets the final error. The job keeps holding its admission slot
// (s.queued) throughout, so graceful drain waits for in-flight retries.
func (s *Server) failJob(be *backend, j *job, err error) {
	be.pending.Add(-1)
	s.emitErrorSpan(j, be, err)
	if final := s.failed(be, err, j.retries+1); final != nil {
		s.deliverErr(j, be.cfg.Name, final)
		return
	}
	j.retries++
	backoff := retryBackoff(s.cfg.RetryBackoff, j.retries)
	s.emitRetrySpan(j, be, backoff, err)
	// The backoff timer, not the runner, requeues: the chunk's other
	// jobs must not wait out this job's penalty.
	time.AfterFunc(backoff, func() {
		if err := s.batcher.retry(entry{job: j, exclude: be}); err != nil {
			s.deliverErr(j, be.cfg.Name, err)
			return
		}
		s.pump()
	})
}

// deliverErr fails a job for good and gives back its admission slot.
func (s *Server) deliverErr(j *job, backendName string, err error) {
	s.queued.Add(-1)
	j.done <- jobResult{backend: backendName, retries: j.retries, err: err}
}

// retryBackoff is base<<(retry-1), clamped so a misconfigured attempt
// budget cannot shift into overflow.
func retryBackoff(base time.Duration, retry int) time.Duration {
	if retry > 16 {
		retry = 16
	}
	return base << (retry - 1)
}

// emitComputeSpan records the runner-side compute span of one priced
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
