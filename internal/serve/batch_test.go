package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"binopt/internal/accel"
	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/scenario"
)

// testOption returns a distinct valid contract per index.
func testOption(i int) option.Option {
	return option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: 80 + float64(i), Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
}

// testShard builds one shard on a fresh engine of the named registry
// platform. steps must match the server's Steps, or New's parity probe
// rejects the shard. At shallow depths fpga-ivb is both the cheaper
// shard per option and the faster to drain, cpu-ref the dearer and
// slower one.
func testShard(t testing.TB, platform string, steps, workers, queueDepth int) BackendConfig {
	t.Helper()
	p, err := accel.Get(platform)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	return BackendConfig{Name: platform, Engine: eng, Workers: workers, QueueDepth: queueDepth}
}

// gate is a fault hook that reports every batch submission on entered,
// then holds it until step lets one submission through or open lets all
// through, so a test keeps a shard's worker busy for exactly as long as
// it needs. Deferring open after deferring the server's Close lets a
// failed test drain instead of hanging.
type gate struct {
	entered chan struct{}
	step    chan struct{}
	once    sync.Once
}

func newGate() *gate {
	// entered holds more reports than any test makes submissions, so
	// reporting one never blocks the worker.
	return &gate{entered: make(chan struct{}, 16), step: make(chan struct{})}
}

func (g *gate) hook() error {
	g.entered <- struct{}{}
	<-g.step
	return nil
}

func (g *gate) open() { g.once.Do(func() { close(g.step) }) }

// refEngine is a reference lattice at the server's depth, which every
// shard must reproduce bit for bit.
func refEngine(t testing.TB, s *Server) *lattice.Engine {
	t.Helper()
	eng, err := lattice.NewEngine(s.cfg.Steps)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// refPrice is the reference lattice's price of o.
func refPrice(t testing.TB, s *Server, o option.Option) float64 {
	t.Helper()
	want, err := refEngine(t, s).Price(o)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// submitJobs admits one request's worth of cache misses and hands them
// to the batcher, as PriceOptionsTimed does after its cache pass, so a
// test sees the batcher's state the moment submit returns. Each done
// channel holds one result, or none when unbuffered is set: a worker
// delivering to such a job blocks until the test receives.
func submitJobs(t *testing.T, s *Server, unbuffered bool, opts ...option.Option) []*job {
	t.Helper()
	jobs := newJobs(s, unbuffered, opts...)
	s.queued.Add(int64(len(jobs)))
	if err := s.submit(jobs); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// newJobs builds one request's worth of jobs without submitting them.
func newJobs(s *Server, unbuffered bool, opts ...option.Option) []*job {
	jobs := make([]*job, len(opts))
	now := time.Now()
	for i, o := range opts {
		done := make(chan jobResult, 1)
		if unbuffered {
			done = make(chan jobResult)
		}
		jobs[i] = &job{opt: o, key: KeyFor(o, s.cfg.Steps), seq: i, enqueued: now, done: done}
	}
	return jobs
}

// wantPriced receives every job's result and checks it against the
// reference lattice.
func wantPriced(t *testing.T, s *Server, jobs []*job) {
	t.Helper()
	for _, j := range jobs {
		res := <-j.done
		if want := refPrice(t, s, j.opt); res.err != nil || res.price != want {
			t.Errorf("job %v: got (%v, %v), want %v", j.opt, res.price, res.err, want)
		}
	}
}

// TestFlushOnSize: while every worker is busy, singleton requests wait
// in the buffer, and the size trigger alone cuts them into batches of
// exactly MaxBatch.
func TestFlushOnSize(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		Steps: 16, MaxBatch: 4,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	defer g.open()
	s.backends[0].cfg.Engine.SetFaultHook(g.hook)

	jobs := submitJobs(t, s, false, testOption(0))
	<-g.entered // the shard's only worker is now busy
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, submitJobs(t, s, false, testOption(i))...)
		if got, want := s.batcher.pendingLen(), i%4; got != want {
			t.Fatalf("after %d busy-time requests the buffer holds %d jobs, want %d", i, got, want)
		}
	}
	if n := s.metrics.batchSize.Count(); n != 3 {
		t.Fatalf("flushed %d batches, want 3 (the idle-time one, then two size-triggered)", n)
	}
	if sum := s.metrics.batchSize.Sum(); sum != 9 {
		t.Fatalf("flushed %v options, want 1+4+4", sum)
	}
	g.open()
	wantPriced(t, s, jobs)
}

// TestFlushWhenIdle: a lone request on a pool with an idle worker
// leaves the buffer at once — no deadline, no waiting for company.
func TestFlushWhenIdle(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 1024,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	jobs := submitJobs(t, s, false, testOption(0))
	if n := s.batcher.pendingLen(); n != 0 {
		t.Fatalf("%d jobs still buffered with the worker idle", n)
	}
	if n := s.metrics.batchSize.Count(); n != 1 {
		t.Fatalf("flushed %d batches, want 1 (idle-triggered)", n)
	}
	wantPriced(t, s, jobs)

	res, err := s.PriceOptions(context.Background(), []option.Option{testOption(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Backend != "cpu-ref" {
		t.Fatalf("backend = %q", res[0].Backend)
	}
}

// TestRequestLeavesAsOneBatch: a request's misses enter the batcher
// together, so the idle trigger cannot flush its first miss alone and
// leave the rest for a later batch.
func TestRequestLeavesAsOneBatch(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 64,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	opts := make([]option.Option, 5)
	for i := range opts {
		opts[i] = testOption(i)
	}
	if _, err := s.PriceOptions(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if n, sum := s.metrics.batchSize.Count(), s.metrics.batchSize.Sum(); n != 1 || sum != 5 {
		t.Fatalf("flushed %d batches of %v options in all, want one batch of 5", n, sum)
	}
}

// TestWorkerReleaseFlushesBuffer: work buffered while the only worker
// is busy leaves on that worker's slot release, before the worker
// settles the batch it just priced.
func TestWorkerReleaseFlushesBuffer(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		Steps: 16, MaxBatch: 64,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	defer g.open()
	s.backends[0].cfg.Engine.SetFaultHook(g.hook)

	first := submitJobs(t, s, false, testOption(0))
	<-g.entered
	waiting := submitJobs(t, s, false, testOption(1))
	if n := s.batcher.pendingLen(); n != 1 {
		t.Fatalf("buffer holds %d jobs with the worker busy, want 1", n)
	}
	g.step <- struct{}{}
	wantPriced(t, s, first)
	if n := s.batcher.pendingLen(); n != 0 {
		t.Fatalf("buffer still holds %d jobs after the worker freed its slot", n)
	}
	g.open()
	wantPriced(t, s, waiting)
}

// TestRevaluationReleaseFlushesBuffer: a revaluation holds its shard's
// only slot while it runs; price work buffered meanwhile leaves when
// the revaluation releases the slot, before the revaluation returns.
func TestRevaluationReleaseFlushesBuffer(t *testing.T) {
	const steps = 16
	bcs, err := DefaultBackends(steps)
	if err != nil {
		t.Fatal(err)
	}
	shard := bcs[0]
	shard.Workers, shard.QueueDepth = 1, 8
	s, err := New(Config{Steps: steps, Backends: []BackendConfig{shard}, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	g := newGate()
	defer g.open()
	var calls atomic.Int64
	shard.Engine.SetFaultHook(func() error {
		if calls.Add(1) == 1 {
			g.entered <- struct{}{}
			<-g.step
		}
		return nil
	})

	book, shocks, quantiles, err := placementRequest().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	revalued := make(chan error, 1)
	go func() {
		_, _, err := s.revalue(scenario.Request{Book: book, Shocks: shocks, Quantiles: quantiles}, s.logger)
		revalued <- err
	}()
	<-g.entered // the revaluation holds the shard's only slot
	jobs := submitJobs(t, s, false, testOption(0))
	if n := s.batcher.pendingLen(); n != 1 {
		t.Fatalf("buffer holds %d jobs with the revaluation running, want 1", n)
	}
	g.open()
	if err := <-revalued; err != nil {
		t.Fatal(err)
	}
	if n := s.batcher.pendingLen(); n != 0 {
		t.Fatalf("buffer still holds %d jobs after the revaluation released its slot", n)
	}
	ref, err := refEngine(t, s).Price(testOption(0))
	if err != nil {
		t.Fatal(err)
	}
	if res := <-jobs[0].done; res.err != nil || res.price != ref {
		t.Fatalf("buffered job: got (%v, %v), want %v", res.price, res.err, ref)
	}
}

// TestAllBreakersOpenStillFlushes: with every breaker open, place falls
// back to every shard, and so does the idle trigger — a lone request on
// an idle but fully shed pool still leaves at once.
func TestAllBreakersOpenStillFlushes(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 64,
		Backends: []BackendConfig{
			testShard(t, "fpga-ivb", 16, 1, 8),
			testShard(t, "cpu-ref", 16, 1, 8),
		},
		Breaker: BreakerConfig{Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	for _, be := range s.backends {
		be.breaker.mu.Lock()
		be.breaker.trip()
		be.breaker.mu.Unlock()
	}

	jobs := submitJobs(t, s, false, testOption(0))
	if n := s.batcher.pendingLen(); n != 0 {
		t.Fatalf("%d jobs buffered on an idle pool with every breaker open", n)
	}
	wantPriced(t, s, jobs)
}

// TestClosedLoopStaysOnCheapShard: a client that sends its next request
// as soon as the last one answers finds the cheap one-worker shard idle
// every time, because a worker frees its slot before it delivers any
// result — so nothing spills to the dearer two-worker shard (cpu-ref,
// against the cheap fpga-ivb). The second
// half pins that ordering directly: while the worker is blocked
// delivering the second job of a batch, its slot is already free.
func TestClosedLoopStaysOnCheapShard(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 64, CacheSize: -1,
		Backends: []BackendConfig{
			testShard(t, "fpga-ivb", 16, 1, 8),
			testShard(t, "cpu-ref", 16, 2, 8),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	cheap := s.backends[0]

	const n = 200
	for i := 0; i < n; i++ {
		res, err := s.PriceOptions(context.Background(), []option.Option{testOption(i % 50), testOption(i%50 + 50)})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Backend != cheap.cfg.Name {
				t.Fatalf("request %d priced on %s, want the cheap shard %s", i, r.Backend, cheap.cfg.Name)
			}
		}
	}

	jobs := newJobs(s, true, testOption(0), testOption(1))
	s.queued.Add(2)
	s.dispatchBatch(jobs)
	<-jobs[0].done // the worker now blocks delivering jobs[1]
	if got := cheap.inflight.Load(); got != 0 {
		t.Errorf("cheap shard holds %d slots while settling a priced batch, want 0", got)
	}
	<-jobs[1].done
}

// TestBatcherStress: many concurrent requests on a one-worker shard,
// with a small batch cap and queue, all complete with the right prices
// — the buffer, the kicks and the blocked dispatches lose nothing.
func TestBatcherStress(t *testing.T) {
	s, err := New(Config{
		Steps: 16, MaxBatch: 8, CacheSize: -1,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := refEngine(t, s)
	const clients, perClient = 32, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				opts := make([]option.Option, 1+(c+r)%5)
				for i := range opts {
					opts[i] = testOption(c + r + i)
				}
				res, err := s.PriceOptions(context.Background(), opts)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, r, err)
					return
				}
				for i, o := range opts {
					want, err := ref.Price(o)
					if err != nil || res[i].Price != want {
						t.Errorf("client %d request %d contract %d: price %v, want %v (%v)", c, r, i, res[i].Price, want, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := s.batcher.pendingLen(); n != 0 {
		t.Errorf("%d jobs left in the buffer", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBackpressure429: once QueueDepth options are admitted and stuck, the
// next request must be rejected — ErrSaturated at the library layer, 429
// with a Retry-After header over HTTP.
func TestBackpressure429(t *testing.T) {
	block := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Steps: 16, MaxBatch: 1, QueueDepth: 2,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)},
	})
	defer close(block)
	// MaxBatch 1 makes each option its own submission: one hook call.
	s.backends[0].cfg.Engine.SetFaultHook(func() error {
		<-block
		return nil
	})

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
		Steps: 16, MaxBatch: 4, QueueDepth: 3,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)},
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
		Steps: 16, MaxBatch: 4,
		Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 2, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.backends[0].cfg.Engine.SetFaultHook(func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})

	ref := refEngine(t, s)
	const n = 12
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			res, err := s.PriceOptions(context.Background(), []option.Option{testOption(i)})
			if err == nil {
				if want, rerr := ref.Price(testOption(i)); rerr != nil || res[0].Price != want {
					err = errors.New("wrong price after drain")
				}
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
// than deadlock. The fast shard (fpga-ivb) is also the cheaper per
// option, so energy-first placement offers it work first. Fault hooks
// hold every submission until the test has seen the exact placement,
// so the outcome does not depend on scheduling.
func TestDispatchSpillsAcrossShards(t *testing.T) {
	release := make(chan struct{})
	fastBusy := make(chan struct{}, 1)
	s, err := New(Config{
		Steps: 16, MaxBatch: 1, QueueDepth: 64,
		Backends: []BackendConfig{
			testShard(t, "fpga-ivb", 16, 1, 1),
			testShard(t, "cpu-ref", 16, 1, 8),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := s.backends[0], s.backends[1]
	fast.cfg.Engine.SetFaultHook(func() error {
		select {
		case fastBusy <- struct{}{}:
		default:
		}
		<-release
		return nil
	})
	slow.cfg.Engine.SetFaultHook(func() error {
		<-release
		return nil
	})

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

	fastN := s.metrics.backendCounter(fast.cfg.Name).Load()
	slowN := s.metrics.backendCounter(slow.cfg.Name).Load()
	if fastN != 2 || slowN != n-2 {
		t.Fatalf("shards priced fast=%d slow=%d, want 2 (worker + queue slot) and %d", fastN, slowN, n-2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
