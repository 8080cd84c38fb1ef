package serve

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"binopt/internal/option"
)

// Key is the canonical identity of a priced contract. Two requests that
// describe the same economics must map to the same key, so every float
// is normalised (negative zero folds onto zero; validation upstream
// guarantees no NaNs reach the cache). The lattice depth is part of the
// key so a server reconfigured to a different tree depth never serves
// stale prices.
//
// Key is the single definition of contract identity for every caching
// and placement layer: the node-local result cache keys its LRU on it,
// and the cluster router hashes Key.String() onto the consistent-hash
// ring. One definition means the two layers cannot drift — a contract
// routed to a node is the same contract that node caches.
type Key struct {
	right  option.Right
	style  option.Style
	spot   float64
	strike float64
	rate   float64
	div    float64
	sigma  float64
	t      float64
	steps  int
}

// canon folds -0 onto +0 so the two bit patterns share a key.
func canon(x float64) float64 {
	if x == 0 {
		return 0
	}
	return x
}

// KeyFor canonicalises a contract for the given lattice depth.
func KeyFor(o option.Option, steps int) Key {
	return Key{
		right:  o.Right,
		style:  o.Style,
		spot:   canon(o.Spot),
		strike: canon(o.Strike),
		rate:   canon(o.Rate),
		div:    canon(o.Div),
		sigma:  canon(o.Sigma),
		t:      canon(o.T),
		steps:  steps,
	}
}

// String renders the key's canonical textual form, the byte string the
// cluster tier hashes for contract placement. Floats render as exact
// hexadecimal ('x') so two economically identical contracts produce the
// same bytes and two different ones never collide textually.
func (k Key) String() string {
	hexf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	b.WriteString(k.right.String())
	b.WriteByte('|')
	b.WriteString(k.style.String())
	for _, v := range []float64{k.spot, k.strike, k.rate, k.div, k.sigma, k.t} {
		b.WriteByte('|')
		b.WriteString(hexf(v))
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k.steps))
	return b.String()
}

// lru is a fixed-capacity least-recently-used map, safe for concurrent
// use. It backs both node caches: priced contracts keyed by Key — a
// pricing service sees the same quote tape repeatedly, so a warm cache
// turns the steady state from O(tree) per option into a map lookup —
// and whole scenario reports keyed by their request digest. A nil *lru
// is the disabled cache: every get misses, put and flush do nothing.
type lru[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns a cache holding up to capacity entries; a capacity
// <= 0 disables caching (returns nil).
func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &lru[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element, capacity)}
}

// get returns the cached value and whether it was present, promoting the
// entry to most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores a value, evicting the least recently used entry when full.
func (c *lru[K, V]) put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = v
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// flush drops every cached entry, returning how many were evicted. The
// invalidation path calls it when a generation bump lands — a
// vol-surface update makes every cached price of the old generation
// suspect, and re-pricing is cheap next to serving a stale quote.
func (c *lru[K, V]) flush() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	clear(c.m)
	return n
}

// len reports the number of cached entries.
func (c *lru[K, V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
