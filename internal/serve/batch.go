package serve

import (
	"errors"
	"sync"
	"time"

	"binopt/internal/option"
)

// ErrClosed is returned for work submitted after shutdown began.
var ErrClosed = errors.New("serve: server is shutting down")

// ErrSaturated is returned when admission would exceed the configured
// queue depth; HTTP maps it to 429 with a Retry-After computed from the
// modelled drain rate.
var ErrSaturated = errors.New("serve: pricing queue saturated")

// ErrBatchTooLarge is the permanent form of saturation: the request's
// cache-missing contracts alone exceed the queue depth, so retrying can
// never help. HTTP maps it to 413 instead of 429 + Retry-After.
var ErrBatchTooLarge = errors.New("serve: batch exceeds queue capacity")

// job is one cache-missing contract travelling through the batcher to a
// backend shard. done is buffered so a worker never blocks on a client
// that gave up waiting.
//
// The four timestamps mark the phase boundaries of the option's life:
// enqueued→flushed is batch assembly, flushed→picked is shard queue
// wait, picked→computed is compute; the requester adds readback when it
// receives the result. flushed is written by the dispatcher and picked/
// computed by the worker, all strictly before the send on done, so the
// requester reads them race-free after the receive.
type job struct {
	opt      option.Option
	key      Key
	req      uint64 // telemetry request group (0 when tracing is off)
	trace    string // distributed trace ID ("" when untraced)
	seq      int    // index within the originating request
	enqueued time.Time
	flushed  time.Time
	picked   time.Time
	computed time.Time
	done     chan jobResult
	// retries counts failover re-dispatches after failed pricing
	// attempts. Only the owning worker (exactly one at a time — a job
	// is re-dispatched only after its current shard gave up on it) and
	// the backoff timer touch it, strictly before the next send, so the
	// requester reads it race-free from the jobResult.
	retries int
}

type jobResult struct {
	price   float64
	backend string
	joules  float64
	retries int // failover re-dispatches this option survived
	err     error
}

// batcher implements work-conserving micro-batching. A request's
// cache misses enter the buffer together; full maxBatch chunks leave at
// once (size trigger), and the remainder leaves at once when a shard it
// could be placed on has an idle worker (idle trigger). Otherwise it
// waits, but only while every such worker is busy: each freed shard
// slot takes at most one maxBatch chunk of the buffer (next), so
// buffered work drains at the rate the pool frees capacity, in pieces
// placement can still spread across shards. Under load this still
// groups options into shared quad sweeps, the grouped workload on which
// the paper's accelerators approach peak throughput (§V-C saturation),
// without ever holding an idle worker back for a timer.
type batcher struct {
	maxBatch int
	idle     func() bool // a placement candidate has an idle worker

	mu     sync.Mutex
	buf    []*job
	closed bool
}

func newBatcher(maxBatch int, idle func() bool) *batcher {
	return &batcher{maxBatch: maxBatch, idle: idle}
}

// add buffers one request's cache misses and returns the batches to
// dispatch now. The append and the idle check share one hold of b.mu,
// and a slot is always freed before next takes b.mu, so a remainder
// left buffered here is seen by the next slot release: no wakeup is
// lost.
func (b *batcher) add(jobs []*job) ([][]*job, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.buf = append(b.buf, jobs...)
	var out [][]*job
	for len(b.buf) >= b.maxBatch {
		out = append(out, b.take(b.maxBatch))
	}
	if len(b.buf) > 0 && b.idle() {
		out = append(out, b.take(len(b.buf)))
	}
	return out, nil
}

// next detaches at most one maxBatch chunk of buffered jobs, oldest
// first, for a shard slot that was just freed; nil when none wait.
func (b *batcher) next() []*job {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) == 0 {
		return nil
	}
	return b.take(min(len(b.buf), b.maxBatch))
}

// take detaches the first n buffered jobs. The capacity cap keeps the
// batch and the buffer from ever sharing a writable slot. Caller holds
// b.mu.
func (b *batcher) take(n int) []*job {
	batch := b.buf[:n:n]
	b.buf = b.buf[n:]
	return batch
}

// close stops accepting work and returns whatever is buffered, so no
// admitted job is ever dropped during graceful shutdown.
func (b *batcher) close() []*job {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	return b.take(len(b.buf))
}

// pendingLen reports the number of buffered (not yet flushed) jobs.
func (b *batcher) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}
