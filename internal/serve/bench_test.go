package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/telemetry"
)

// BenchmarkServeBatch measures the serving overhead per option — cache
// lookup, admission, micro-batching, dispatch, engine submission and
// accounting, result delivery — with the cache disabled, on one
// two-worker cpu-ref shard at a 2-step depth, where the lattice sweep
// itself costs next to nothing: i.e. the queue machinery and the engine
// layer every miss passes through.
func BenchmarkServeBatch(b *testing.B) {
	s, err := New(Config{
		Steps: 2, MaxBatch: 64,
		CacheSize: -1, // disable: measure the queue, not the map
		Backends:  []BackendConfig{testShard(b, "cpu-ref", 2, 2)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(context.Background())

	batch := make([]option.Option, 64)
	for i := range batch {
		batch[i] = testOption(i)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PriceOptions(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "options/s")
}

// BenchmarkServeBatchTraced measures tracing on the path a default
// server runs: engine-backed shards at a shallow depth, so every
// 64-option batch is one submission to a platform engine's quad batch
// pricer, traced or not. With the span ring live each batch adds its
// compute span and device timeline and each request its phase spans;
// the trace=true over trace=false delta is the whole cost of tracing.
func BenchmarkServeBatchTraced(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%v", traced), func(b *testing.B) {
			backends, err := DefaultBackends(16)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				Steps: 16, MaxBatch: 64,
				CacheSize: -1,
				Backends:  backends,
			}
			if traced {
				cfg.Tracer = telemetry.New(65536)
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(context.Background())

			batch := make([]option.Option, 64)
			for i := range batch {
				batch[i] = testOption(i)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PriceOptions(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "options/s")
		})
	}
}

// BenchmarkServeCacheHit measures the steady-state fast path: every
// option served straight from the LRU. The one cpu-ref shard at a
// 2-step depth prices only the priming pass.
func BenchmarkServeCacheHit(b *testing.B) {
	s, err := New(Config{
		Steps: 2, MaxBatch: 64,
		Backends: []BackendConfig{testShard(b, "cpu-ref", 2, 2)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(context.Background())

	batch := make([]option.Option, 64)
	for i := range batch {
		batch[i] = testOption(i)
	}
	ctx := context.Background()
	if _, err := s.PriceOptions(ctx, batch); err != nil { // prime
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PriceOptions(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "options/s")
}

// BenchmarkPriceAmericanPut1024 is the lattice hot path at the paper's
// evaluation depth — the cold-path cost every cache miss pays.
func BenchmarkPriceAmericanPut1024(b *testing.B) {
	eng, err := lattice.NewEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	o := option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Price(o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/option")
}

// BenchmarkPriceBatchQuad1024 is the cold path through the
// quad-interleaved batch pricer at the paper's evaluation depth: 64
// distinct contracts per call. The one-worker case isolates the
// interleave itself — its options/s over BenchmarkPriceAmericanPut1024
// is the single-core speedup of sharing one backward sweep across four
// lanes; the GOMAXPROCS case adds worker parallelism on top (omitted
// when GOMAXPROCS is 1).
func BenchmarkPriceBatchQuad1024(b *testing.B) {
	eng, err := lattice.NewEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]option.Option, 64)
	for i := range batch {
		batch[i] = option.Option{
			Right: option.Put, Style: option.American,
			Spot: 100, Strike: 85 + 0.5*float64(i),
			Rate: 0.03, Sigma: 0.2 + 0.002*float64(i%8), T: 0.5,
		}
	}
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.PriceBatch(batch, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "options/s")
		})
	}
}

// BenchmarkPriceAndGreeksBatch1024 is the Greeks pass of a scenario
// request at the paper's evaluation depth: a 12-position CRR book on one
// worker, whose 60 base and bump lanes pack into 15 full quad groups.
// scripts/coldpath_smoke.sh gates its allocs/op, so the pass cannot
// fall back to per-position scalar sweeps (each of which allocates its
// plan and retained levels) unnoticed.
func BenchmarkPriceAndGreeksBatch1024(b *testing.B) {
	eng, err := lattice.NewEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	book := make([]option.Option, 12)
	for i := range book {
		book[i] = option.Option{
			Right: option.Put, Style: option.American,
			Spot: 100, Strike: 85 + 2.5*float64(i),
			Rate: 0.03, Sigma: 0.2 + 0.01*float64(i%4), T: 0.5,
		}
		if i%3 == 2 {
			book[i].Right = option.Call
		}
	}
	// One untimed call first: the engine's setup and the runtime's first
	// worker goroutine then stay out of allocs/op, whatever b.N is.
	if _, _, err := eng.PriceAndGreeksBatch(book, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.PriceAndGreeksBatch(book, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(book))*1e3, "ms/position")
}
