package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"binopt/internal/option"
	"binopt/internal/perf"
)

// stubEstimate is a synthetic perf row for queue-behaviour tests.
func stubEstimate(rate float64) perf.Estimate {
	return perf.Estimate{Platform: "stub", Kernel: "stub", Precision: "double", OptionsPerSec: rate, PowerWatts: 10}
}

// testOption returns a distinct valid contract per index.
func testOption(i int) option.Option {
	return option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: 80 + float64(i), Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
}

// stubPrice is an instant pricing kernel for queue-behaviour tests.
func stubPrice(o option.Option) (float64, error) { return o.Strike - o.Spot + 1, nil }

// stubBackends avoids running the HLS fitter in queue unit tests.
func stubBackends(workers, queueDepth int) []BackendConfig {
	return []BackendConfig{{
		Name:       "stub",
		Estimate:   stubEstimate(1000),
		Workers:    workers,
		QueueDepth: queueDepth,
	}}
}

// TestFlushOnSize: with a long deadline, the size trigger alone must cut
// batches of exactly MaxBatch.
func TestFlushOnSize(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 4, FlushInterval: 10 * time.Second,
		Backends: stubBackends(1, 8), PriceFunc: stubPrice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.PriceOptions(context.Background(), []option.Option{testOption(i)}); err != nil {
				t.Errorf("price %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if n := s.metrics.batchSize.Count(); n != 2 {
		t.Fatalf("flushed %d batches, want 2 (size-triggered)", n)
	}
	if mean := s.metrics.batchSize.Mean(); mean != 4 {
		t.Fatalf("mean batch size %v, want 4", mean)
	}
}

// TestFlushOnDeadline: a lone request must not wait for company longer
// than the flush interval.
func TestFlushOnDeadline(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 1024, FlushInterval: 5 * time.Millisecond,
		Backends: stubBackends(1, 8), PriceFunc: stubPrice,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	start := time.Now()
	res, err := s.PriceOptions(context.Background(), []option.Option{testOption(0)})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline flush took %s", el)
	}
	if res[0].Backend != "stub" {
		t.Fatalf("backend = %q", res[0].Backend)
	}
	if n := s.metrics.batchSize.Count(); n != 1 {
		t.Fatalf("flushed %d batches, want 1 (deadline-triggered)", n)
	}
	if mean := s.metrics.batchSize.Mean(); mean != 1 {
		t.Fatalf("batch size %v, want 1", mean)
	}
}

// TestBackpressure429: once QueueDepth options are admitted and stuck, the
// next request must be rejected — ErrSaturated at the library layer, 429
// with a Retry-After header over HTTP.
func TestBackpressure429(t *testing.T) {
	block := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Steps: 16, MaxBatch: 1, FlushInterval: time.Millisecond, QueueDepth: 2,
		Backends: stubBackends(1, 8),
		PriceFunc: func(o option.Option) (float64, error) {
			<-block
			return 1, nil
		},
	})
	defer close(block)

	// Fill the queue with 2 admitted options.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.PriceOptions(context.Background(), []option.Option{testOption(i)})
		}(i)
	}
	// Wait until both are admitted.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.PriceOptions(context.Background(), []option.Option{testOption(9)}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}

	resp, err := http.Post(hs.URL+"/v1/price", "application/json",
		strings.NewReader(`{"right":"put","style":"american","spot":100,"strike":90,"rate":0.03,"sigma":0.2,"t":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.metrics.rejected.Load(); got != 2 {
		t.Fatalf("rejected counter %d, want 2", got)
	}

	// Unblock and let the helpers finish so Cleanup can drain.
	block <- struct{}{}
	block <- struct{}{}
	wg.Wait()
}

// TestBatchTooLarge413: a request whose uncached contracts exceed the
// whole queue depth can never be admitted — retrying is pointless, so it
// must get ErrBatchTooLarge / HTTP 413 instead of 429 + Retry-After.
func TestBatchTooLarge413(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Steps: 16, MaxBatch: 4, FlushInterval: time.Millisecond, QueueDepth: 3,
		Backends: stubBackends(1, 8), PriceFunc: stubPrice,
	})

	opts := make([]option.Option, 4)
	for i := range opts {
		opts[i] = testOption(i)
	}
	if _, err := s.PriceOptions(context.Background(), opts); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}

	var body strings.Builder
	body.WriteString(`{"contracts":[`)
	for i := 0; i < 4; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"right":"put","style":"american","spot":100,"strike":%d,"rate":0.03,"sigma":0.2,"t":0.5}`, 80+i)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(hs.URL+"/v1/price", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("413 carries Retry-After %q; the rejection is permanent", ra)
	}

	// Cached contracts don't count against the depth: warm 3 of the 4,
	// then the same over-depth request succeeds with 1 uncached job.
	if _, err := s.PriceOptions(context.Background(), opts[:3]); err != nil {
		t.Fatalf("warming cache: %v", err)
	}
	res, err := s.PriceOptions(context.Background(), opts)
	if err != nil {
		t.Fatalf("after warming: %v", err)
	}
	if !res[0].Cached || res[3].Cached {
		t.Fatalf("cached flags = %v/%v, want true/false", res[0].Cached, res[3].Cached)
	}
}

// TestGracefulShutdownDrains: Close must deliver every admitted result,
// then refuse new work.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 4, FlushInterval: time.Millisecond,
		Backends: stubBackends(2, 8),
		PriceFunc: func(o option.Option) (float64, error) {
			time.Sleep(5 * time.Millisecond)
			return o.Strike, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			res, err := s.PriceOptions(context.Background(), []option.Option{testOption(i)})
			if err == nil && res[0].Price != testOption(i).Strike {
				err = errors.New("wrong price after drain")
			}
			results <- err
		}(i)
	}
	// Let some work get admitted before draining.
	for s.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	okCount, closedCount := 0, 0
	for i := 0; i < n; i++ {
		switch err := <-results; {
		case err == nil:
			okCount++
		case errors.Is(err, ErrClosed):
			// Submitted after shutdown began: rejected, not dropped.
			closedCount++
		default:
			t.Fatalf("request failed with %v", err)
		}
	}
	if okCount+closedCount != n {
		t.Fatalf("accounted %d+%d of %d requests", okCount, closedCount, n)
	}
	if okCount == 0 {
		t.Fatal("drain completed zero admitted requests")
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queue depth %d after drain, want 0", got)
	}

	if _, err := s.PriceOptions(context.Background(), []option.Option{testOption(99)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown err = %v, want ErrClosed", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDispatchSpillsAcrossShards: when the fastest shard's worker is
// busy and its queue full, batches must land on the other shard rather
// than deadlock. The shards draw equal power, so the fast shard is also
// the cheapest per option and energy-first placement offers it work
// first. The stub kernels hold every pricing until the test has seen
// the exact placement, so the outcome does not depend on scheduling.
func TestDispatchSpillsAcrossShards(t *testing.T) {
	release := make(chan struct{})
	fastBusy := make(chan struct{}, 1)
	blocked := func(started chan<- struct{}) func(option.Option) (float64, error) {
		return func(option.Option) (float64, error) {
			if started != nil {
				select {
				case started <- struct{}{}:
				default:
				}
			}
			<-release
			return 1, nil
		}
	}
	s, err := New(Config{
		Steps: 16, MaxBatch: 1, FlushInterval: time.Millisecond, QueueDepth: 64,
		Backends: []BackendConfig{
			{Name: "fast", Estimate: stubEstimate(10000), Workers: 1, QueueDepth: 1, PriceFunc: blocked(fastBusy)},
			{Name: "slow", Estimate: stubEstimate(10), Workers: 1, QueueDepth: 8, PriceFunc: blocked(nil)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := s.backends[0], s.backends[1]

	const n = 6
	var wg sync.WaitGroup
	price := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.PriceOptions(context.Background(), []option.Option{testOption(i)}); err != nil {
				t.Errorf("price %d: %v", i, err)
			}
		}()
	}
	// The first job occupies the fast shard's only worker...
	price(0)
	<-fastBusy
	// ...then the rest fill its one-slot queue and spill to the slow
	// shard. Nothing is released until every job has been placed.
	for i := 1; i < n; i++ {
		price(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fast.pending.Load()+slow.pending.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d+%d of %d jobs placed", fast.pending.Load(), slow.pending.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(fast.jobs); got != cap(fast.jobs) {
		t.Errorf("fast shard queue holds %d of %d batches with its worker busy", got, cap(fast.jobs))
	}
	close(release)
	wg.Wait()

	fastN := s.metrics.backendCounter("fast").Load()
	slowN := s.metrics.backendCounter("slow").Load()
	if fastN != 2 || slowN != n-2 {
		t.Fatalf("shards priced fast=%d slow=%d, want 2 (worker + queue slot) and %d", fastN, slowN, n-2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
