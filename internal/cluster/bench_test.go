package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"binopt/internal/serve"
)

// BenchmarkRouterOverhead prices the same (cached) contract directly
// against a node and through a one-node router, so the delta between
// the two sub-benchmarks is the fabric tax: one extra HTTP hop, the
// ring lookup, sub-batch marshal and merge. Kept as a benchmark so the
// BENCH_serve.json fleet row has a measured, re-runnable source.
func BenchmarkRouterOverhead(b *testing.B) {
	const steps = 128
	f, err := NewLocalFleet(1, serve.Config{Steps: steps, CacheSize: 1024})
	if err != nil {
		b.Fatalf("fleet: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Close(ctx)
	}()
	rt, err := NewRouter(Config{Nodes: f.Nodes(), Steps: steps, Heartbeat: -1})
	if err != nil {
		b.Fatalf("router: %v", err)
	}
	defer rt.Close()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	body, _ := json.Marshal(serve.PriceRequest{Contracts: []serve.Contract{contractFor(100)}})
	post := func(url string) error {
		resp, err := http.Post(url+"/v1/price", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var pr serve.PriceResponse
		return json.NewDecoder(resp.Body).Decode(&pr)
	}
	// Warm the node cache so both paths measure transport, not lattice.
	if err := post(f.nodes[0].url); err != nil {
		b.Fatalf("warm: %v", err)
	}

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post(f.nodes[0].url); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-router", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post(hs.URL); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRingOwner measures the placement lookup itself — the only
// cluster-side work on the per-contract hot path.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(1, 128)
	for _, n := range []string{"node-0", "node-1", "node-2", "node-3"} {
		r.Add(n)
	}
	keys := testKeys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(keys[i%len(keys)])
	}
}
