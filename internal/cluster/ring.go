// Package cluster is the distributed pricing fabric over internal/serve:
// a router front-end that places canonicalised contracts onto member
// nodes via a consistent-hash ring, forwards batches over the nodes'
// existing HTTP API with per-node connection pools, request hedging and
// successor failover, tracks membership with heartbeat health polls
// feeding per-node circuit breakers, propagates cache invalidations by
// gossip so a vol-surface update on one node never leaves a stale price
// on another, and aggregates per-node metrics into a fleet-level
// options/joule scoreboard. It is the modelled data centre the paper's
// energy argument assumes: racks of pricing boards behind a scheduler,
// not a single device.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes. Every member
// contributes VNodes points on a 64-bit circle; a key is owned by the
// first point clockwise from its hash. The placement is seeded: the same
// (seed, members, vnodes) triple always yields the same ring, so tests
// replay and a restarted router re-derives identical ownership —
// placement is configuration, not runtime accident.
//
// Virtual nodes are what make the two load-bearing properties hold:
// keys spread near-uniformly across members (balance), and a member
// joining or leaving remaps only the ~1/N of keys in its own segments
// (minimal movement) — every other node's cache stays warm through a
// membership change.
type Ring struct {
	seed   uint64
	vnodes int

	mu     sync.RWMutex
	points []ringPoint // sorted by hash, the circle
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring. vnodes <= 0 defaults to 128 points per
// node, enough to hold per-node load within a few percent of fair at
// fleet sizes the fabric targets.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	return &Ring{seed: seed, vnodes: vnodes, nodes: make(map[string]bool)}
}

// hash64 is FNV-1a over the seed bytes then the key bytes, finished
// with a murmur3-style avalanche. FNV is deterministic across processes
// (unlike maphash) and cheap, but its final multiply leaves the last
// few input bytes under-diffused in the high bits — exactly the bits
// ring placement searches on, and contract keys differ mostly in their
// trailing bytes. The finalizer spreads every input bit across the
// whole word; the seed both namespaces rings and lets tests exercise
// alternative placements.
func (r *Ring) hash64(s string) uint64 {
	h := fnv.New64a()
	var seedBytes [8]byte
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(r.seed >> (8 * i))
	}
	h.Write(seedBytes[:])
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash: r.hash64(fmt.Sprintf("%s#%d", node, v)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// search finds the index of the first point clockwise from key's hash.
// Caller holds at least the read lock.
func (r *Ring) search(key string) int {
	h := r.hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return i
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner — the failover chain: when the owner is down, its
// segment's keys re-route to the next distinct member clockwise, so an
// outage shifts load to ring neighbours instead of one hot spare.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, at := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(at+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Ownership reports the fraction of the 64-bit hash circle each member
// owns — the ring-ownership gauge on /metrics, and the balance figure
// the ring tests bound.
func (r *Ring) Ownership() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as a float
	for i, p := range r.points {
		// The arc ending at point i is owned by point i's node.
		var arc uint64
		if i == 0 {
			arc = r.points[0].hash - r.points[len(r.points)-1].hash // wraps mod 2^64
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		out[p.node] += float64(arc) / whole
	}
	return out
}
