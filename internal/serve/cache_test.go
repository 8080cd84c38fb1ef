package serve

import (
	"context"
	"math"
	"testing"

	"binopt/internal/option"
	"binopt/internal/scenario"
)

func cacheOption(strike float64) option.Option {
	return option.Option{
		Right: option.Put, Style: option.American,
		Spot: 100, Strike: strike, Rate: 0.03, Sigma: 0.2, T: 0.5,
	}
}

func TestCacheHitAndEviction(t *testing.T) {
	c := newLRU[Key, float64](2)
	k1 := KeyFor(cacheOption(90), 64)
	k2 := KeyFor(cacheOption(100), 64)
	k3 := KeyFor(cacheOption(110), 64)

	c.put(k1, 1.0)
	c.put(k2, 2.0)
	if v, ok := c.get(k1); !ok || v != 1.0 {
		t.Fatalf("k1 = %v,%v want 1,true", v, ok)
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.put(k3, 3.0)
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 survived eviction; LRU order wrong")
	}
	if v, ok := c.get(k1); !ok || v != 1.0 {
		t.Fatalf("k1 evicted out of LRU order (%v, %v)", v, ok)
	}
	if v, ok := c.get(k3); !ok || v != 3.0 {
		t.Fatalf("k3 = %v,%v want 3,true", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	// Updating an existing key must not grow the cache.
	c.put(k3, 3.5)
	if v, _ := c.get(k3); v != 3.5 {
		t.Fatalf("update lost: %v", v)
	}
	if c.len() != 2 {
		t.Fatalf("len after update = %d, want 2", c.len())
	}
}

func TestCacheKeyCanonicalisation(t *testing.T) {
	a := cacheOption(95)
	b := a
	b.Rate = math.Copysign(0, -1) // -0.0
	a.Rate = 0
	if KeyFor(a, 128) != KeyFor(b, 128) {
		t.Fatal("-0 and +0 rate produced different keys")
	}

	// Different depth must not share keys.
	if KeyFor(a, 128) == KeyFor(a, 256) {
		t.Fatal("different tree depths share a cache key")
	}
	// Different economics must not share keys.
	cOpt := a
	cOpt.Sigma = 0.21
	if KeyFor(a, 128) == KeyFor(cOpt, 128) {
		t.Fatal("different sigmas share a cache key")
	}
}

// TestKeyForTable pins the exported canonical-key contract the cluster
// router shares with the node caches: same economics → same key and
// same String() bytes, any differing field or depth → different key and
// different bytes. If the two layers ever disagree on identity, routing
// and caching drift apart — this table is the fence.
func TestKeyForTable(t *testing.T) {
	base := cacheOption(95)
	mut := func(f func(*option.Option)) option.Option {
		o := base
		f(&o)
		return o
	}
	cases := []struct {
		name  string
		a, b  option.Option
		as    int // steps for a
		bs    int // steps for b
		equal bool
	}{
		{"identical", base, base, 128, 128, true},
		{"negative zero rate folds", mut(func(o *option.Option) { o.Rate = 0 }),
			mut(func(o *option.Option) { o.Rate = math.Copysign(0, -1) }), 128, 128, true},
		{"negative zero div folds", mut(func(o *option.Option) { o.Div = 0 }),
			mut(func(o *option.Option) { o.Div = math.Copysign(0, -1) }), 128, 128, true},
		{"different steps", base, base, 128, 256, false},
		{"different spot", base, mut(func(o *option.Option) { o.Spot = 101 }), 128, 128, false},
		{"different strike", base, mut(func(o *option.Option) { o.Strike = 96 }), 128, 128, false},
		{"different rate", base, mut(func(o *option.Option) { o.Rate = 0.031 }), 128, 128, false},
		{"different sigma", base, mut(func(o *option.Option) { o.Sigma = 0.21 }), 128, 128, false},
		{"different expiry", base, mut(func(o *option.Option) { o.T = 0.75 }), 128, 128, false},
		{"different right", base, mut(func(o *option.Option) { o.Right = option.Call }), 128, 128, false},
		{"different style", base, mut(func(o *option.Option) { o.Style = option.European }), 128, 128, false},
		{"one ulp of sigma", base,
			mut(func(o *option.Option) { o.Sigma = math.Nextafter(o.Sigma, 1) }), 128, 128, false},
	}
	for _, tc := range cases {
		ka, kb := KeyFor(tc.a, tc.as), KeyFor(tc.b, tc.bs)
		if (ka == kb) != tc.equal {
			t.Errorf("%s: key equality = %v, want %v", tc.name, ka == kb, tc.equal)
		}
		if (ka.String() == kb.String()) != tc.equal {
			t.Errorf("%s: String equality = %v, want %v (%q vs %q)",
				tc.name, ka.String() == kb.String(), tc.equal, ka, kb)
		}
	}
	if got := KeyFor(base, 128).steps; got != 128 {
		t.Errorf("Steps() = %d, want 128", got)
	}
}

func TestCacheFlush(t *testing.T) {
	c := newLRU[Key, float64](8)
	for i := 0; i < 5; i++ {
		c.put(KeyFor(cacheOption(90+float64(i)), 64), float64(i))
	}
	if n := c.flush(); n != 5 {
		t.Fatalf("flush evicted %d, want 5", n)
	}
	if c.len() != 0 {
		t.Fatalf("len after flush = %d, want 0", c.len())
	}
	if _, ok := c.get(KeyFor(cacheOption(90), 64)); ok {
		t.Fatal("entry survived flush")
	}
	// Flushed cache must keep working.
	c.put(KeyFor(cacheOption(90), 64), 1.5)
	if v, ok := c.get(KeyFor(cacheOption(90), 64)); !ok || v != 1.5 {
		t.Fatalf("post-flush put/get = %v,%v", v, ok)
	}
	var nilCache *lru[Key, float64]
	if nilCache.flush() != 0 {
		t.Fatal("nil cache flush != 0")
	}
}

func TestCacheDisabledAndNonFinite(t *testing.T) {
	var c *lru[Key, float64] // capacity <= 0 yields nil
	if c = newLRU[Key, float64](0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	if _, ok := c.get(KeyFor(cacheOption(90), 64)); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.put(KeyFor(cacheOption(90), 64), 1) // must not panic
	if c.len() != 0 {
		t.Fatal("nil cache has entries")
	}

	// A call on an overflowing spot prices to +Inf on the engine: the
	// server delivers it, but must not pin it into the cache. NaN takes
	// the same guard; settle is handed one directly.
	s, err := New(Config{Steps: 16, Backends: []BackendConfig{testShard(t, "cpu-ref", 16, 1, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	huge := option.Option{Right: option.Call, Style: option.American, Spot: 1e308, Strike: 100, Rate: 0.03, Sigma: 5, T: 1}
	res, err := s.PriceOptions(context.Background(), []option.Option{huge})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res[0].Price, 1) {
		t.Fatalf("overflowing call priced %v, want +Inf", res[0].Price)
	}
	jobs := newJobs(s, false, cacheOption(90))
	s.queued.Add(1)
	s.backends[0].pending.Add(1)
	s.settle(s.backends[0], jobs[0], math.NaN())
	if got := <-jobs[0].done; !math.IsNaN(got.price) {
		t.Fatalf("settled %v, want NaN delivered", got.price)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("non-finite prices cached: len %d", n)
	}
}

// TestLRUScenarioReports pins the same LRU over the scenario cache's key
// and value types: string digests, whole reports, eviction in LRU order.
func TestLRUScenarioReports(t *testing.T) {
	c := newLRU[string, scenario.Report](2)
	c.put("a", scenario.Report{BaseValue: 1})
	c.put("b", scenario.Report{BaseValue: 2})
	c.get("a")
	c.put("c", scenario.Report{BaseValue: 3})
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if rep, ok := c.get("a"); !ok || rep.BaseValue != 1 {
		t.Fatalf("a = %+v,%v want base 1", rep, ok)
	}
	if n := c.flush(); n != 2 {
		t.Fatalf("flush evicted %d, want 2", n)
	}
}
