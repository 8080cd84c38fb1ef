package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("contract-%d", i)
	}
	return keys
}

// TestRingBalance bounds key-distribution skew: across 1k keys on a
// 4-node ring with the default virtual-node count, no node may own more
// than 1.5x or less than 0.5x its fair share. This is the bound that
// makes the fleet's near-linear scaling claim honest — throughput is
// limited by the most-loaded node.
func TestRingBalance(t *testing.T) {
	const nodes, nkeys = 4, 1000
	r := NewRing(1, 0) // default vnodes
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	counts := make(map[string]int)
	for _, k := range testKeys(nkeys) {
		counts[r.Owner(k)]++
	}
	fair := float64(nkeys) / nodes
	for node, c := range counts {
		if float64(c) > 1.5*fair || float64(c) < 0.5*fair {
			t.Errorf("%s owns %d keys, outside [%.0f, %.0f] around fair %.0f", node, c, 0.5*fair, 1.5*fair, fair)
		}
	}
	if len(counts) != nodes {
		t.Fatalf("only %d of %d nodes own keys: %v", len(counts), nodes, counts)
	}

	// The ownership gauge must roughly agree with the empirical split.
	own := r.Ownership()
	var total float64
	for node, frac := range own {
		total += frac
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("%s ownership fraction %.3f, outside [0.10, 0.45]", node, frac)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("ownership fractions sum to %.6f, want 1", total)
	}
}

// TestRingMinimalMovement holds consistent hashing's defining property:
// a node joining an N-node ring remaps only about 1/N of
// the keys — everyone else's cache stays warm through the membership
// change. We allow up to 2x the theoretical expectation for hash noise.
func TestRingMinimalMovement(t *testing.T) {
	const nkeys = 1000
	keys := testKeys(nkeys)

	build := func(nodes []string) map[string]string {
		r := NewRing(1, 0)
		for _, n := range nodes {
			r.Add(n)
		}
		owners := make(map[string]string, nkeys)
		for _, k := range keys {
			owners[k] = r.Owner(k)
		}
		return owners
	}
	moved := func(a, b map[string]string) int {
		n := 0
		for k := range a {
			if a[k] != b[k] {
				n++
			}
		}
		return n
	}

	three := build([]string{"node-0", "node-1", "node-2"})
	four := build([]string{"node-0", "node-1", "node-2", "node-3"})

	// Join: 3 -> 4 nodes, expected movement nkeys/4.
	if m := moved(three, four); m > nkeys/2 {
		t.Errorf("join remapped %d/%d keys, want <= %d (~1/4 expected)", m, nkeys, nkeys/2)
	}
	// Every moved key must have moved TO the joiner — consistent
	// hashing never shuffles keys between surviving nodes.
	for k := range three {
		if three[k] != four[k] && four[k] != "node-3" {
			t.Fatalf("key %q moved %s -> %s, not to the joiner", k, three[k], four[k])
		}
	}
}

// TestRingSeededGolden pins exact placements for a fixed (seed, members,
// vnodes) triple. If this test ever fails, ring placement changed and
// every node cache in a rolling fleet restart would go cold — treat the
// hash layout as a wire format.
func TestRingSeededGolden(t *testing.T) {
	r := NewRing(42, 64)
	for _, n := range []string{"node-0", "node-1", "node-2"} {
		r.Add(n)
	}
	golden := []struct{ key, owner string }{
		{"put|american|0x1.9p+06|0x1.a4p+06|0x1.eb851eb851eb8p-05|0x0p+00|0x1.999999999999ap-03|0x1p-01|1024", "node-2"},
		{"alpha", "node-1"},
		{"beta", "node-2"},
		{"gamma", "node-2"},
		{"delta", "node-1"},
		{"epsilon", "node-2"},
		{"zeta", "node-2"},
		{"eta", "node-2"},
		{"theta", "node-2"},
	}
	for _, g := range golden {
		if got := r.Owner(g.key); got != g.owner {
			t.Errorf("Owner(%q) = %s, want %s", g.key, got, g.owner)
		}
	}
	wantSucc := []string{"node-1", "node-2", "node-0"}
	got := r.Successors("alpha", 3)
	if len(got) != len(wantSucc) {
		t.Fatalf("Successors = %v, want %v", got, wantSucc)
	}
	for i := range got {
		if got[i] != wantSucc[i] {
			t.Fatalf("Successors = %v, want %v", got, wantSucc)
		}
	}

	// A different seed must yield a different placement somewhere —
	// seeding is real, not decorative.
	other := NewRing(43, 64)
	for _, n := range []string{"node-0", "node-1", "node-2"} {
		other.Add(n)
	}
	same := true
	for _, k := range testKeys(100) {
		if r.Owner(k) != other.Owner(k) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical placement over 100 keys")
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(7, 8)
	if r.Owner("x") != "" {
		t.Error("empty ring owns a key")
	}
	if s := r.Successors("x", 2); s != nil {
		t.Errorf("empty ring successors = %v", s)
	}
	r.Add("only")
	r.Add("only") // duplicate add is a no-op
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if got := r.Owner("anything"); got != "only" {
		t.Errorf("single-node ring owner = %q", got)
	}
	if s := r.Successors("anything", 5); len(s) != 1 || s[0] != "only" {
		t.Errorf("single-node successors = %v", s)
	}
}
