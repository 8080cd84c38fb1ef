package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"binopt/internal/serve"
	"binopt/internal/telemetry"
)

// LocalFleet boots M member nodes in one process, each a full
// serve.Server behind its own TCP listener with gossip wiring to its
// peers. It exists for two callers: cmd/pricefleet's in-process mode
// (one binary, a whole modelled rack) and the cluster tests, which
// need real sockets — and the ability to yank one — to prove the
// failover story rather than assert it.
type LocalFleet struct {
	mu    sync.Mutex
	nodes []*fleetNode
}

type fleetNode struct {
	name   string
	server *serve.Server
	hs     *http.Server
	ln     net.Listener
	url    string
	killed bool
	done   chan struct{} // closed when the HTTP serve loop exits
}

// NewLocalFleet starts n member nodes, each configured from cfg (the
// per-node serve config; zero-value fields take the serve defaults).
// Node i is named "node-i" and listens on a kernel-assigned localhost
// port. Gossip peers are fully meshed.
//
// cfg is a per-node template, not shared state: each node gets its own
// Node name, and when cfg.Tracer is set it serves only as a capacity
// template — every node gets a fresh ring of the same size, because a
// shared ring would interleave the fleet's spans into one process lane
// and defeat the per-node cursors the trace aggregator pulls on.
func NewLocalFleet(n int, cfg serve.Config) (*LocalFleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: fleet size must be positive, got %d", n)
	}
	f := &LocalFleet{}
	// Bind every listener first: gossip wiring needs all peer URLs
	// before any node serves.
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("cluster: node %d listen: %w", i, err)
		}
		nodeCfg := cfg
		nodeCfg.Node = fmt.Sprintf("node-%d", i)
		if cfg.Tracer.Enabled() {
			nodeCfg.Tracer = telemetry.New(cfg.Tracer.Capacity())
		}
		s, err := serve.New(nodeCfg)
		if err != nil {
			ln.Close()
			f.close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, &fleetNode{
			name:   nodeCfg.Node,
			server: s,
			ln:     ln,
			url:    "http://" + ln.Addr().String(),
			done:   make(chan struct{}),
		})
	}
	for i, nd := range f.nodes {
		var peers []string
		for j, other := range f.nodes {
			if j != i {
				peers = append(peers, other.url)
			}
		}
		g := &Gossiper{Origin: nd.name, Peers: peers}
		nd.hs = &http.Server{Handler: NodeHandler(nd.server, g)}
		go func(nd *fleetNode) {
			defer close(nd.done)
			nd.hs.Serve(nd.ln) // returns on Kill/Close
		}(nd)
	}
	return f, nil
}

// Len reports the fleet size, killed nodes included.
func (f *LocalFleet) Len() int { return len(f.nodes) }

// Nodes returns the membership in router form.
func (f *LocalFleet) Nodes() []Node {
	out := make([]Node, len(f.nodes))
	for i, nd := range f.nodes {
		out[i] = Node{Name: nd.name, BaseURL: nd.url}
	}
	return out
}

// Kill abruptly terminates node i's HTTP service: the listener closes
// and every open connection is torn down mid-flight, the closest a
// test gets to pulling a board's power. The serve.Server underneath is
// not drained — a real crash would not drain either. Idempotent.
func (f *LocalFleet) Kill(i int) {
	f.mu.Lock()
	nd := f.nodes[i]
	if nd.killed {
		f.mu.Unlock()
		return
	}
	nd.killed = true
	f.mu.Unlock()
	nd.hs.Close() // closes the listener and all active connections
	<-nd.done
}

// Killed reports whether node i has been killed.
func (f *LocalFleet) Killed(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[i].killed
}

// Close shuts the whole fleet down: HTTP abruptly, then the pricing
// servers gracefully so in-flight lattice work lands.
func (f *LocalFleet) Close(ctx context.Context) error {
	var firstErr error
	for i := range f.nodes {
		f.Kill(i)
	}
	for _, nd := range f.nodes {
		if err := nd.server.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// close tears down partially-constructed fleets during NewLocalFleet
// error paths, before any HTTP server exists.
func (f *LocalFleet) close() {
	for _, nd := range f.nodes {
		nd.ln.Close()
		//binopt:ignore ctxflow constructor error path: no caller ctx exists yet, nothing is serving
		nd.server.Close(context.Background())
	}
}
