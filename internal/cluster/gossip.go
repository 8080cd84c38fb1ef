package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/serve"
)

// Gossiper spreads cache-generation bumps epidemically between member
// nodes. The caches are shared-nothing — each node owns its LRU — so
// invalidation is the only cross-node cache traffic, and it needs no
// coordinator: a bump entering anywhere reaches everywhere because each
// node that newly applies a generation re-offers it to its peers.
// Termination is the generation check itself — a node that has already
// seen the generation applies nothing and re-offers nothing, so each
// rumour dies exactly one hop past the frontier.
type Gossiper struct {
	// Origin names this node in re-gossiped requests (for tracing who
	// spread what; the protocol ignores it).
	Origin string
	// Peers are the other members' base URLs.
	Peers []string
	// Fanout bounds how many peers one application pushes to; <= 0
	// means all peers. Small fleets gossip to everyone — the epidemic
	// rounds only matter at sizes this fabric does not target yet.
	Fanout int
	// Timeout bounds one peer push (default 2s).
	Timeout time.Duration
	// Client issues the pushes; nil uses http.DefaultClient.
	Client *http.Client

	// next rotates the fanout window across the peer list so repeated
	// bumps do not always favour the same peers.
	next atomic.Uint64
}

func (g *Gossiper) client() *http.Client {
	if g.Client != nil {
		return g.Client
	}
	return http.DefaultClient
}

func (g *Gossiper) timeout() time.Duration {
	if g.Timeout > 0 {
		return g.Timeout
	}
	return 2 * time.Second
}

// Spread offers generation gen to up to Fanout peers, concurrently,
// and waits for the pushes to finish or time out. Peers that already
// hold gen (or newer) apply nothing and stay quiet; peers that newly
// apply it re-offer it onward — that recursion, not this call, is what
// carries the bump past unreachable links.
func (g *Gossiper) Spread(ctx context.Context, gen uint64) {
	if len(g.Peers) == 0 {
		return
	}
	n := g.Fanout
	if n <= 0 || n > len(g.Peers) {
		n = len(g.Peers)
	}
	start := int(g.next.Add(1)-1) % len(g.Peers)
	body, _ := json.Marshal(serve.InvalidateRequest{Generation: gen, Origin: g.Origin})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		peer := g.Peers[(start+i)%len(g.Peers)]
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, g.timeout())
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, http.MethodPost, peer+"/v1/invalidate", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := g.client().Do(req)
			if err != nil {
				return // unreachable peers hear it from someone else
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(peer)
	}
	wg.Wait()
}

// NodeHandler wraps a member node's HTTP handler with gossip:
// POST /v1/invalidate applies the bump to the local server and, only
// when the bump was newly applied, re-offers it to the gossiper's
// peers before answering — so by the time the caller sees Applied=true
// the rumour is already one hop wider. Every other route passes through
// to the server untouched.
func NodeHandler(s *serve.Server, g *Gossiper) http.Handler {
	inner := s.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("/v1/invalidate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
			return
		}
		req, status, err := serve.ReadInvalidate(w, r)
		if err != nil {
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		gen := req.Generation
		if gen == 0 {
			gen = s.CacheGeneration() + 1
		}
		applied := s.Invalidate(gen)
		if applied && g != nil {
			g.Spread(r.Context(), gen)
		}
		writeJSON(w, http.StatusOK, serve.InvalidateResponse{Applied: applied, Generation: s.CacheGeneration()})
	})
	return mux
}
