package serve

import (
	"sync"
	"time"
)

// BreakerConfig parameterises the per-shard circuit breakers. The zero
// value of every field has a sensible default. The defaults are tuned
// for a latency-SLO pricing pool: a shard failing one pricing in ten is
// already worse than routing around it, because results are
// bit-identical everywhere and the healthy shards have modelled
// headroom — degraded-but-correct beats hard failures.
type BreakerConfig struct {
	// Window is the rolling outcome window per shard (default 50
	// pricings).
	Window int
	// MinSamples is the minimum outcomes in the window before the
	// breaker may trip (default 10), so one early error on a cold shard
	// cannot open it.
	MinSamples int
	// Threshold is the windowed error rate at or above which the
	// breaker opens (default 0.1).
	Threshold float64
	// Cooldown is how long an open breaker rejects dispatch before
	// probing again (default 250ms).
	Cooldown time.Duration
	// HalfOpenSuccesses is the number of consecutive successful
	// pricings a half-open shard must serve to close again (default 8);
	// any failure while half-open re-opens immediately.
	HalfOpenSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 50
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.1
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 8
	}
	return c
}

// breakerState is the classic three-state machine. The numeric values
// are the /metrics encoding of binopt_breaker_state.
type breakerState int

const (
	breakerClosed   breakerState = 0 // healthy, counting outcomes
	breakerOpen     breakerState = 1 // shedding: dispatch routes around the shard
	breakerHalfOpen breakerState = 2 // probing: limited traffic decides reopen/close
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one shard's health tracker: a rolling error-rate window
// driving open → half-open → closed transitions. Workers report
// outcomes; the dispatcher asks eligible() before offering work.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable clock for deterministic tests

	mu       sync.Mutex
	window   []bool // ring of outcomes, true = failure
	at       int    // next ring slot
	filled   int    // occupied slots
	fails    int    // failures currently in the ring
	state    breakerState
	openedAt time.Time
	probeOK  int   // consecutive half-open successes
	opens    int64 // cumulative open transitions (metric)
}

func newBreaker(cfg BreakerConfig) *breaker {
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg, now: time.Now, window: make([]bool, cfg.Window)}
}

// record books one outcome into the ring. Caller holds b.mu.
func (b *breaker) record(failure bool) {
	if b.filled == len(b.window) {
		if b.window[b.at] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.at] = failure
	if failure {
		b.fails++
	}
	b.at = (b.at + 1) % len(b.window)
}

// resetWindow clears the ring. Caller holds b.mu.
func (b *breaker) resetWindow() {
	b.at, b.filled, b.fails = 0, 0, 0
}

// trip opens the breaker. Caller holds b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.opens++
	b.resetWindow()
}

// eligible reports whether the dispatcher may offer this shard new
// work. An open breaker whose cooldown has elapsed transitions to
// half-open here — the next dispatched batch is the probe.
func (b *breaker) eligible() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probeOK = 0
		return true
	default:
		return true
	}
}

// onSuccess books one successful pricing. Enough consecutive successes
// close a half-open breaker.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenSuccesses {
			b.state = breakerClosed
			b.resetWindow()
		}
	case breakerClosed:
		b.record(false)
	}
}

// onFailure books one failed pricing. A half-open probe failure
// re-opens immediately; a closed breaker opens when the windowed error
// rate crosses the threshold; a failure while already open (work that
// started before the trip) extends the outage.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerOpen:
		b.openedAt = b.now()
	default:
		b.record(true)
		if b.filled >= b.cfg.MinSamples && float64(b.fails)/float64(b.filled) >= b.cfg.Threshold {
			b.trip()
		}
	}
}

// snapshot returns the current state and cumulative open count.
func (b *breaker) snapshot() (breakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// Breaker is the exported handle on the shard circuit-breaker machinery,
// for layers above the worker pool that track health per remote — the
// cluster router runs one per member node, fed by heartbeats and forward
// outcomes, exactly as the pool runs one per shard. Same state machine,
// same defaults, one implementation.
type Breaker struct{ b *breaker }

// NewBreaker builds a breaker; zero-valued config fields take the
// BreakerConfig defaults.
func NewBreaker(cfg BreakerConfig) *Breaker { return &Breaker{b: newBreaker(cfg)} }

// Eligible reports whether the guarded target may be offered new work.
// An open breaker whose cooldown has elapsed transitions to half-open
// here — the next request is the probe.
func (b *Breaker) Eligible() bool { return b.b.eligible() }

// OnSuccess books one successful outcome.
func (b *Breaker) OnSuccess() { b.b.onSuccess() }

// OnFailure books one failed outcome.
func (b *Breaker) OnFailure() { b.b.onFailure() }

// State reports the breaker's current state ("closed", "open",
// "half-open") and its numeric /metrics encoding (0, 1, 2).
func (b *Breaker) State() (string, int) {
	st, _ := b.b.snapshot()
	return st.String(), int(st)
}

// Opens reports the cumulative number of open transitions.
func (b *Breaker) Opens() int64 {
	_, opens := b.b.snapshot()
	return opens
}
