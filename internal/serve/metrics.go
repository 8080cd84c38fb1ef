package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/omhist"
	"binopt/internal/opencl"
)

// latencyBuckets are the histogram upper bounds, in seconds: exponential
// from 50 microseconds to ~100 s, which spans a cache hit on loopback up
// to a saturated queue draining a deep tree. The final implicit bucket is
// +Inf.
var latencyBuckets = omhist.ExpBuckets(50e-6, 120, 2)

// joulesBuckets span a request's modelled energy: from a fraction of a
// millijoule (one option on the most efficient device) up past a
// 2000-option chain on the hungriest one.
var joulesBuckets = omhist.ExpBuckets(1e-5, 1e3, 10)

// atomicFloat is a float64 accumulator built on a bits CAS loop, good
// enough for the additive counters the metrics page needs.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// phaseNames orders the pipeline phase decomposition everywhere it is
// rendered: the life of one priced option is batch assembly (its wait
// in the FIFO), hand-off to the shard, compute, readback.
var phaseNames = []string{"batch", "queue", "compute", "readback"}

// rateWindow is a 10-slot, one-second-granularity sliding window over a
// counter, for a throughput figure that decays after idle periods
// instead of averaging over the whole uptime. Methods take the current
// unix second so tests can drive the clock.
type rateWindow struct {
	mu    sync.Mutex
	slots [10]struct {
		sec int64
		n   int64
	}
}

// add books n observations in the current second's slot.
func (w *rateWindow) add(nowSec, n int64) {
	i := nowSec % int64(len(w.slots))
	w.mu.Lock()
	if w.slots[i].sec != nowSec {
		w.slots[i].sec = nowSec
		w.slots[i].n = 0
	}
	w.slots[i].n += n
	w.mu.Unlock()
}

// rate returns observations per second over the window, counting only
// slots within the last len(slots) seconds. uptime bounds the divisor
// so a server younger than the window is not under-reported.
func (w *rateWindow) rate(nowSec int64, uptime time.Duration) float64 {
	window := float64(len(w.slots))
	if up := uptime.Seconds(); up < window {
		window = up
	}
	if window < 1 {
		window = 1
	}
	var sum int64
	w.mu.Lock()
	for _, s := range w.slots {
		if s.sec > nowSec-int64(len(w.slots)) {
			sum += s.n
		}
	}
	w.mu.Unlock()
	return float64(sum) / window
}

// metrics aggregates everything /metrics exposes. All fields are safe for
// concurrent use.
type metrics struct {
	start time.Time

	requests       atomic.Int64 // HTTP requests to /v1/price
	volcurveReqs   atomic.Int64 // HTTP requests to /v1/volcurve
	badRequests    atomic.Int64 // 4xx other than 429
	rejected       atomic.Int64 // 429 admission rejections
	optionsServed  atomic.Int64 // priced + cache hits returned to clients
	optionsPriced  atomic.Int64 // actually ran the lattice
	cacheHits      atomic.Int64
	batchPriced    atomic.Int64 // options priced through the quad-interleaved batch path
	solverPricings atomic.Int64 // lattice evaluations spent inside implied-vol solves
	solverJoules   atomicFloat  // modelled energy of those evaluations
	priceErrors    atomic.Int64 // failed pricing attempts across all shards
	retries        atomic.Int64 // failover re-dispatches after failed attempts

	invalidations      atomic.Int64 // applied cache-generation bumps
	invalidatedEntries atomic.Int64 // cache entries dropped by those bumps

	scenarioReqs      atomic.Int64 // HTTP requests to /v1/scenarios
	scenarioCacheHits atomic.Int64 // revaluations served from the scenario cache
	scenarioShocks    atomic.Int64 // scenarios evaluated (shocked market states)
	scenarioEvals     atomic.Int64 // contract evaluations spent in revaluations
	scenarioJoules    atomicFloat  // modelled energy of those evaluations

	modelledJoules atomicFloat // sum of per-option modelled energy

	latency   *omhist.Histogram // per-option enqueue-to-result latency, seconds
	batchSize *omhist.Histogram // options per flushed batch
	// requestJoules is the per-request energy ledger: one observation
	// per served /v1/price, /v1/scenarios or /v1/volcurve request of
	// its summed modelled joules, exemplared with the request's trace
	// ID.
	requestJoules *omhist.Histogram
	// scenarioLatency is the end-to-end latency of non-cached
	// /v1/scenarios revaluations, seconds.
	scenarioLatency *omhist.Histogram
	// phases decomposes the per-option latency: one histogram per
	// pipeline phase, keyed in phaseNames order.
	phases map[string]*omhist.Histogram
	// phaseJoules attributes the booked energy across the same four
	// phases (duration-proportional, telescoping exactly to
	// modelledJoules for priced options).
	phaseJoules map[string]*atomicFloat
	// window tracks options served over the last 10 seconds, the decay-
	// aware companion of the cumulative optionsPerSec.
	window rateWindow

	mu            sync.Mutex
	perBackend    map[string]*atomic.Int64 // options priced per backend shard
	perBackendErr map[string]*atomic.Int64 // failed pricing attempts per backend shard

	// substrate, when set, snapshots per-backend device counters from
	// the platform engines; render appends them to the exposition.
	substrate func() []substrateStat
	// traceStats, when set, reports the span tracer's emitted/dropped/
	// retained counts.
	traceStats func() (emitted, dropped int64, retained int)
	// breakers, when set, snapshots per-shard circuit breaker state for
	// the exposition.
	breakers func() []breakerStat
}

// breakerStat is one shard's circuit breaker snapshot at render time.
type breakerStat struct {
	backend string
	state   breakerState
	opens   int64 // cumulative closed/half-open -> open transitions
}

// substrateStat is one backend's accumulated device-level activity, read
// from its platform engine at render time.
type substrateStat struct {
	backend    string
	counters   opencl.Counters
	joules     float64
	devSeconds float64 // modelled device-busy time
}

func newMetrics() *metrics {
	batchBounds := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	m := &metrics{
		start:           time.Now(),
		latency:         omhist.New(latencyBuckets),
		batchSize:       omhist.New(batchBounds),
		requestJoules:   omhist.New(joulesBuckets),
		scenarioLatency: omhist.New(latencyBuckets),
		phases:          make(map[string]*omhist.Histogram, len(phaseNames)),
		phaseJoules:     make(map[string]*atomicFloat, len(phaseNames)),
		perBackend:      make(map[string]*atomic.Int64),
		perBackendErr:   make(map[string]*atomic.Int64),
	}
	for _, p := range phaseNames {
		m.phases[p] = omhist.New(latencyBuckets)
		m.phaseJoules[p] = new(atomicFloat)
	}
	return m
}

// observePhases records one priced option's per-phase wall durations.
func (m *metrics) observePhases(batch, queue, compute, readback time.Duration) {
	m.phases["batch"].Observe(batch.Seconds())
	m.phases["queue"].Observe(queue.Seconds())
	m.phases["compute"].Observe(compute.Seconds())
	m.phases["readback"].Observe(readback.Seconds())
}

// backendCounter returns the per-shard priced counter, creating it on
// first use.
func (m *metrics) backendCounter(name string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.perBackend[name]
	if !ok {
		c = new(atomic.Int64)
		m.perBackend[name] = c
	}
	return c
}

// backendErrCounter returns the per-shard failed-attempt counter,
// creating it on first use.
func (m *metrics) backendErrCounter(name string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.perBackendErr[name]
	if !ok {
		c = new(atomic.Int64)
		m.perBackendErr[name] = c
	}
	return c
}

// observeOption records one completed pricing: its queue+compute latency
// and the modelled energy of the shard that priced it. nowSec is the
// caller's already-stamped completion time — the worker holds a fresh
// time.Time, so the hot path is spared another clock read. trace, when
// non-empty, pins the option's latency bucket exemplar to its
// distributed trace.
func (m *metrics) observeOption(lat time.Duration, nowSec int64, joules float64, backend *atomic.Int64, trace string) {
	m.optionsPriced.Add(1)
	m.optionsServed.Add(1)
	m.window.add(nowSec, 1)
	m.modelledJoules.add(joules)
	m.latency.ObserveExemplar(lat.Seconds(), trace)
	if backend != nil {
		backend.Add(1)
	}
}

// observeHit records one cache hit served to a client.
func (m *metrics) observeHit() {
	m.cacheHits.Add(1)
	m.optionsServed.Add(1)
	m.window.add(time.Now().Unix(), 1)
}

// joulesPerOption is the modelled energy amortised over everything served
// (cache hits cost nothing, which is exactly their point).
func (m *metrics) joulesPerOption() float64 {
	served := m.optionsServed.Load()
	if served == 0 {
		return 0
	}
	return m.modelledJoules.load() / float64(served)
}

// optionsPerSec is the cumulative serving rate since start.
func (m *metrics) optionsPerSec() float64 {
	el := time.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.optionsServed.Load()) / el
}

// render writes the exposition text: Prometheus-style name/value lines,
// one metric per line, deterministic ordering.
func (m *metrics) render(queueDepth int64, cacheLen int, cacheGen uint64) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("binopt_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	w("binopt_requests_total{endpoint=\"price\"} %d\n", m.requests.Load())
	w("binopt_requests_total{endpoint=\"volcurve\"} %d\n", m.volcurveReqs.Load())
	w("binopt_requests_total{endpoint=\"scenarios\"} %d\n", m.scenarioReqs.Load())
	w("binopt_bad_requests_total %d\n", m.badRequests.Load())
	w("binopt_rejected_total %d\n", m.rejected.Load())
	w("binopt_options_served_total %d\n", m.optionsServed.Load())
	w("binopt_options_priced_total %d\n", m.optionsPriced.Load())
	w("binopt_cache_hits_total %d\n", m.cacheHits.Load())
	w("binopt_cache_entries %d\n", cacheLen)
	w("binopt_cache_generation %d\n", cacheGen)
	w("binopt_cache_invalidations_total %d\n", m.invalidations.Load())
	w("binopt_cache_invalidated_entries_total %d\n", m.invalidatedEntries.Load())
	w("binopt_solver_pricings_total %d\n", m.solverPricings.Load())
	w("binopt_solver_modelled_joules_total %.6g\n", m.solverJoules.load())
	w("binopt_price_errors_total %d\n", m.priceErrors.Load())
	w("binopt_retries_total %d\n", m.retries.Load())
	w("binopt_queue_depth %d\n", queueDepth)
	w("binopt_options_per_sec %.3f\n", m.optionsPerSec())
	now := time.Now()
	w("binopt_options_per_sec_window %.3f\n", m.window.rate(now.Unix(), now.Sub(m.start)))
	w("binopt_modelled_joules_total %.6g\n", m.modelledJoules.load())
	w("binopt_modelled_joules_per_option %.6g\n", m.joulesPerOption())

	w("binopt_batch_size_mean %.3f\n", m.batchSize.Mean())
	m.batchSize.Render(&b, "binopt_batch_size", "")
	w("binopt_batch_priced_options_total %d\n", m.batchPriced.Load())
	w("binopt_option_latency_seconds_mean %.6g\n", m.latency.Mean())
	m.latency.Render(&b, "binopt_option_latency_seconds", "")
	m.requestJoules.Render(&b, "binopt_request_joules", "")

	w("binopt_scenario_requests_total %d\n", m.scenarioReqs.Load())
	w("binopt_scenario_cache_hits_total %d\n", m.scenarioCacheHits.Load())
	w("binopt_scenario_shocks_total %d\n", m.scenarioShocks.Load())
	w("binopt_scenario_evaluations_total %d\n", m.scenarioEvals.Load())
	w("binopt_scenario_modelled_joules_total %.6g\n", m.scenarioJoules.load())
	w("binopt_scenario_latency_seconds_mean %.6g\n", m.scenarioLatency.Mean())
	m.scenarioLatency.Render(&b, "binopt_scenario_latency_seconds", "")

	for _, p := range phaseNames {
		w("binopt_phase_seconds_mean{phase=%q} %.6g\n", p, m.phases[p].Mean())
		m.phases[p].Render(&b, "binopt_phase_seconds", fmt.Sprintf("phase=%q", p))
		w("binopt_phase_joules_total{phase=%q} %.6g\n", p, m.phaseJoules[p].load())
	}

	m.mu.Lock()
	names := make([]string, 0, len(m.perBackend))
	for name := range m.perBackend {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w("binopt_backend_options_priced_total{backend=%q} %d\n", name, m.perBackend[name].Load())
	}
	errNames := make([]string, 0, len(m.perBackendErr))
	for name := range m.perBackendErr {
		errNames = append(errNames, name)
	}
	sort.Strings(errNames)
	for _, name := range errNames {
		w("binopt_backend_price_errors_total{backend=%q} %d\n", name, m.perBackendErr[name].Load())
	}
	m.mu.Unlock()

	if m.breakers != nil {
		for _, bs := range m.breakers() {
			w("binopt_breaker_state{backend=%q} %d\n", bs.backend, int(bs.state))
			w("binopt_breaker_opens_total{backend=%q} %d\n", bs.backend, bs.opens)
		}
	}

	if m.substrate != nil {
		for _, st := range m.substrate() {
			c := st.counters
			w("binopt_backend_flops_total{backend=%q} %d\n", st.backend, c.Flops)
			w("binopt_backend_global_bytes_total{backend=%q} %d\n", st.backend, c.GlobalBytes())
			w("binopt_backend_host_bytes_total{backend=%q} %d\n", st.backend, c.HostBytes())
			w("binopt_backend_barriers_total{backend=%q} %d\n", st.backend, c.Barriers)
			w("binopt_backend_kernel_launches_total{backend=%q} %d\n", st.backend, c.KernelLaunches)
			w("binopt_backend_modelled_joules_total{backend=%q} %.6g\n", st.backend, st.joules)
			w("binopt_backend_modelled_device_seconds_total{backend=%q} %.6g\n", st.backend, st.devSeconds)
		}
	}
	if m.traceStats != nil {
		emitted, dropped, retained := m.traceStats()
		w("binopt_trace_spans_total %d\n", emitted)
		w("binopt_trace_spans_dropped_total %d\n", dropped)
		w("binopt_trace_spans_retained %d\n", retained)
	}
	return b.String()
}
