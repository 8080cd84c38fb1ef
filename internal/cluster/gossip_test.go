package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"binopt/internal/serve"
)

// TestGossipConvergence: a generation bump posted to ONE member of a
// three-node fleet must reach every member — the epidemic path, with no
// router involved. The spread is synchronous along each hop, so by the
// time the first node answers, the fleet has converged.
func TestGossipConvergence(t *testing.T) {
	f, err := NewLocalFleet(3, serve.Config{Steps: 64})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Close(ctx)
	}()

	resp, body := postJSON(t, f.URL(0)+"/v1/invalidate", serve.InvalidateRequest{Generation: 7, Origin: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: HTTP %d: %s", resp.StatusCode, body)
	}
	var ir serve.InvalidateResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !ir.Applied || ir.Generation != 7 {
		t.Fatalf("applied=%v gen=%d, want applied gen 7", ir.Applied, ir.Generation)
	}
	for i := 0; i < f.Len(); i++ {
		if gen := f.Server(i).CacheGeneration(); gen != 7 {
			t.Errorf("node %d at generation %d, want 7 — gossip never arrived", i, gen)
		}
	}

	// Re-delivery of the same generation is a no-op everywhere: the
	// idempotence that lets rumours travel multiple paths without
	// repeatedly dumping warm caches.
	resp, body = postJSON(t, f.URL(1)+"/v1/invalidate", serve.InvalidateRequest{Generation: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-invalidate: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ir.Applied {
		t.Error("duplicate generation re-applied — gossip would never terminate")
	}
}

// TestGossipFlushesPeerCaches: the point of the rumour — a warm cache
// on node B actually flushes when the bump enters at node A.
func TestGossipFlushesPeerCaches(t *testing.T) {
	f, err := NewLocalFleet(2, serve.Config{Steps: 64, CacheSize: 128})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Close(ctx)
	}()

	// Warm node 1's cache directly.
	c := contractFor(95)
	resp, _ := postJSON(t, f.URL(1)+"/v1/price", serve.PriceRequest{Contracts: []serve.Contract{c}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: HTTP %d", resp.StatusCode)
	}
	var pr serve.PriceResponse
	resp, body := postJSON(t, f.URL(1)+"/v1/price", serve.PriceRequest{Contracts: []serve.Contract{c}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-price: HTTP %d", resp.StatusCode)
	}
	json.Unmarshal(body, &pr)
	if !pr.Results[0].Cached {
		t.Fatal("second pricing not cached; cannot observe the flush")
	}

	// Bump at node 0; node 1 must serve the next request cold.
	resp, _ = postJSON(t, f.URL(0)+"/v1/invalidate", serve.InvalidateRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: HTTP %d", resp.StatusCode)
	}
	resp, body = postJSON(t, f.URL(1)+"/v1/price", serve.PriceRequest{Contracts: []serve.Contract{c}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-flush price: HTTP %d", resp.StatusCode)
	}
	json.Unmarshal(body, &pr)
	if pr.Results[0].Cached {
		t.Error("node 1 served from cache after a peer-originated invalidation")
	}
}

// TestRouterInvalidateBroadcast: a bump entering at the ROUTER reaches
// every member, and the router's own generation view advances.
func TestRouterInvalidateBroadcast(t *testing.T) {
	f, rt, hs := newTestFleet(t, 3, serve.Config{Steps: 64}, Config{Steps: 64})

	resp, body := postJSON(t, hs.URL+"/v1/invalidate", serve.InvalidateRequest{Generation: 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Applied      bool   `json:"applied"`
		Generation   uint64 `json:"generation"`
		NodesReached int    `json:"nodes_reached"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Applied || out.Generation != 9 || out.NodesReached != 3 {
		t.Fatalf("applied=%v gen=%d reached=%d, want applied gen 9 reached 3",
			out.Applied, out.Generation, out.NodesReached)
	}
	for i := 0; i < f.Len(); i++ {
		if gen := f.Server(i).CacheGeneration(); gen != 9 {
			t.Errorf("node %d at generation %d, want 9", i, gen)
		}
	}
	if rt.gen.Load() != 9 {
		t.Errorf("router generation %d, want 9", rt.gen.Load())
	}

	// A stale bump at the router is refused without touching nodes.
	resp, body = postJSON(t, hs.URL+"/v1/invalidate", serve.InvalidateRequest{Generation: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale invalidate: HTTP %d: %s", resp.StatusCode, body)
	}
	var ir serve.InvalidateResponse
	json.Unmarshal(body, &ir)
	if ir.Applied || ir.Generation != 9 {
		t.Errorf("stale bump: applied=%v gen=%d, want refused at 9", ir.Applied, ir.Generation)
	}
}

// TestGossipSpreadFanout: Fanout bounds the push width and the rotation
// spreads load across peers over successive rumours.
func TestGossipSpreadFanout(t *testing.T) {
	var hits [3]int
	var servers [3]*httptest.Server
	peers := make([]string, 3)
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i]++
			w.Write([]byte(`{"applied":true}`))
		}))
		defer servers[i].Close()
		peers[i] = servers[i].URL
	}
	g := &Gossiper{Origin: "test", Peers: peers, Fanout: 2}
	for gen := uint64(1); gen <= 3; gen++ {
		g.Spread(context.Background(), gen)
	}
	if g.Spreads() != 6 {
		t.Fatalf("spreads = %d, want 3 rounds x fanout 2 = 6", g.Spreads())
	}
	total := hits[0] + hits[1] + hits[2]
	if total != 6 {
		t.Fatalf("peer hits = %v (total %d), want 6", hits, total)
	}
	for i, h := range hits {
		if h == 0 {
			t.Errorf("peer %d never gossiped to — rotation stuck", i)
		}
	}
}

// TestInvalidateBodyBound: all three invalidate endpoints — a plain
// node, a gossiping node and the router — share one body parser, so a
// body of MaxInvalidateBytes+1 gets 413 everywhere instead of a
// truncated-JSON 400, while a valid body of exactly the bound is still
// applied.
func TestInvalidateBodyBound(t *testing.T) {
	f, _, router := newTestFleet(t, 1, serve.Config{Steps: 16}, Config{Steps: 16})
	node := httptest.NewServer(f.Server(0).Handler())
	defer node.Close()
	gossiping := httptest.NewServer(NodeHandler(f.Server(0), nil))
	defer gossiping.Close()

	// padded is a valid invalidate body of exactly n bytes.
	padded := func(n int) []byte {
		head := `{"origin":"`
		return []byte(head + strings.Repeat("a", n-len(head)-2) + `"}`)
	}
	for _, tc := range []struct{ name, url string }{
		{"node", node.URL}, {"gossip", gossiping.URL}, {"router", router.URL},
	} {
		for _, c := range []struct {
			size int
			want int
		}{{serve.MaxInvalidateBytes + 1, http.StatusRequestEntityTooLarge}, {serve.MaxInvalidateBytes, http.StatusOK}} {
			resp, err := http.Post(tc.url+"/v1/invalidate", "application/json", bytes.NewReader(padded(c.size)))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s: %d-byte body answered %d, want %d", tc.name, c.size, resp.StatusCode, c.want)
			}
		}
	}
}
