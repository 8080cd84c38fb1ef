package serve

import (
	"errors"
	"slices"
	"sync"
	"time"

	"binopt/internal/option"
)

// ErrClosed is returned for work submitted after shutdown began.
var ErrClosed = errors.New("serve: server is shutting down")

// ErrSaturated is returned when admission would exceed the configured
// queue depth, or when an engine run finds as many runs already waiting
// as the pool has Workers slots; HTTP maps it to 429 with a Retry-After
// computed from the modelled drain rate.
var ErrSaturated = errors.New("serve: pricing queue saturated")

// ErrBatchTooLarge is the permanent form of saturation: the request's
// cache-missing contracts alone exceed the queue depth, so retrying can
// never help. HTTP maps it to 413 instead of 429 + Retry-After.
var ErrBatchTooLarge = errors.New("serve: batch exceeds queue capacity")

// job is one cache-missing contract travelling through the batcher to a
// backend shard. done is buffered so a runner never blocks on a client
// that gave up waiting.
//
// The four timestamps mark the phase boundaries of the option's life:
// enqueued→flushed is batch assembly, the whole wait in the batcher's
// FIFO; flushed→picked is the hand-off to the chunk's runner;
// picked→computed is compute; the requester adds readback when it
// receives the result. flushed is written by the pump and picked/
// computed by the runner, all strictly before the send on done, so the
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
	// attempts. Only the owning runner (exactly one at a time — a job
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

// entry is one piece of waiting work, a contract job or an engine run,
// with the shard its last attempt failed on, which it must avoid. An
// engine run — a scenario revaluation or one round of an implied-vol
// curve (onShard) — waits on its run channel, buffered for the one
// hand-off per wait: the pump sends the shard whose slot it claimed,
// Close sends nil when the drain deadline abandons the wait.
type entry struct {
	job     *job
	run     chan *backend
	exclude *backend
}

// batcher is the pool's one waiting room: a FIFO of contract jobs and
// engine runs. Work leaves it only onto an idle shard slot (next),
// oldest first, so nothing ever waits on a busy shard. Contract jobs
// leave in chunks of up to maxBatch: when every slot is busy, jobs
// buffered meanwhile share one quad sweep per chunk, the grouped
// workload on which the paper's accelerators approach peak throughput
// (§V-C saturation), without an idle worker ever being held back for a
// timer.
type batcher struct {
	maxBatch int
	maxRuns  int // runs that may wait at once: the pool's Workers slots

	mu        sync.Mutex
	buf       []entry
	runs      int  // runs waiting in buf
	closed    bool // Close began: only retries enter
	abandoned bool // Close's deadline passed: nothing enters
}

func newBatcher(maxBatch, maxRuns int) *batcher {
	return &batcher{maxBatch: maxBatch, maxRuns: maxRuns}
}

// add queues one request's cache misses, all in one hold of b.mu, so
// they leave together when a slot is idle.
func (b *batcher) add(jobs []*job) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	for _, j := range jobs {
		b.buf = append(b.buf, entry{job: j})
	}
	return nil
}

// addRun admits an engine run. When nothing waits ahead of it, it
// returns the shard whose idle slot claim found; otherwise, or when
// every candidate is busy, the run waits on r. It returns ErrSaturated
// when maxRuns runs already wait: beyond that a run would wait longer
// than one full turn of the pool.
func (b *batcher) addRun(r chan *backend, claim func(exclude *backend) *backend) (*backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if len(b.buf) == 0 {
		if be := claim(nil); be != nil {
			return be, nil
		}
	}
	if b.runs >= b.maxRuns {
		return nil, ErrSaturated
	}
	b.buf = append(b.buf, entry{run: r})
	b.runs++
	return nil, nil
}

// retry puts work whose attempt failed back at the head of the FIFO,
// to start on any shard but e.exclude. Retries still enter while Close
// drains, since their admission is already counted, but not once the
// drain has been abandoned.
func (b *batcher) retry(e entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.abandoned {
		return ErrClosed
	}
	b.buf = slices.Insert(b.buf, 0, e)
	if e.run != nil {
		b.runs++
	}
	return nil
}

// next detaches the oldest waiting work that claim can find an idle
// slot for, with the shard claimed: a run alone, or a chunk of up to
// maxBatch contract jobs in FIFO order, none of them excluding that
// shard. It returns a nil shard when nothing can start. Claims happen
// only under b.mu (here and in addRun), and every arrival and every
// slot release is followed by a call, so no work waits while a slot
// that fits it is idle.
func (b *batcher) next(claim func(exclude *backend) *backend) (*backend, []*job, chan *backend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, e := range b.buf {
		be := claim(e.exclude)
		if be == nil {
			if e.exclude == nil {
				// No candidate at all is idle. Retries, which may
				// still fit a shard the others avoid, sit at the head.
				return nil, nil, nil
			}
			continue
		}
		if e.run != nil {
			b.buf = slices.Delete(b.buf, i, i+1)
			b.runs--
			return be, nil, e.run
		}
		k := i
		for k < len(b.buf) && k-i < b.maxBatch && b.buf[k].job != nil && b.buf[k].exclude != be {
			k++
		}
		batch := make([]*job, 0, k-i)
		for _, w := range b.buf[i:k] {
			batch = append(batch, w.job)
		}
		b.buf = slices.Delete(b.buf, i, k)
		return be, batch, nil
	}
	return nil, nil, nil
}

// close stops admitting new work; what waits still leaves as slots
// free.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// abandon empties the FIFO for good and returns what waited in it.
func (b *batcher) abandon() []entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed, b.abandoned = true, true
	out := b.buf
	b.buf, b.runs = nil, 0
	return out
}

// pendingLen reports the number of waiting entries: jobs and runs.
func (b *batcher) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}
