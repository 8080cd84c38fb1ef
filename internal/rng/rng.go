// Package rng provides the random-number machinery for the Monte Carlo
// substrate: a fast, seedable xoshiro256** generator (implemented from
// the published reference algorithm, not wrapped from math/rand, so the
// stream is stable across Go releases), uniform and Gaussian variates
// (Box–Muller and Ziggurat-free polar method), and antithetic wrappers.
// The paper's related work (§II) is dominated by Monte Carlo
// accelerators; this package is the deterministic foundation for the
// reproduction's MC engine.
package rng

import "math"

// splitmix64 seeds the generator state; it is the standard seeding
// function recommended for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** 1.0 generator of Blackman and Vigna:
// 256 bits of state, period 2^256-1, excellent statistical quality.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Xoshiro256 {
	var g Xoshiro256
	sm := seed
	for i := range g.s {
		g.s[i] = splitmix64(&sm)
	}
	// A zero state would be absorbing; splitmix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if g.s[0]|g.s[1]|g.s[2]|g.s[3] == 0 {
		g.s[0] = 1
	}
	return &g
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (g *Xoshiro256) Uint64() uint64 {
	result := rotl(g.s[1]*5, 7) * 9
	t := g.s[1] << 17
	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = rotl(g.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Uint64()>>11) * (1.0 / (1 << 53))
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls
// to Uint64; used to give parallel workers non-overlapping substreams.
func (g *Xoshiro256) Jump() {
	jump := [4]uint64{0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C, 0xA9582618E03FC9AA, 0x39ABDC4529B1661C}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= g.s[0]
				s1 ^= g.s[1]
				s2 ^= g.s[2]
				s3 ^= g.s[3]
			}
			g.Uint64()
		}
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
}

// Norm returns a standard normal variate via the Marsaglia polar method
// (exact, no tail truncation), caching the spare deviate.
type Norm struct {
	src   *Xoshiro256
	spare float64
	has   bool
}

// NewNorm returns a Gaussian source over the generator.
func NewNorm(src *Xoshiro256) *Norm { return &Norm{src: src} }

// Next returns the next standard normal variate.
func (n *Norm) Next() float64 {
	if n.has {
		n.has = false
		return n.spare
	}
	for {
		u := 2*n.src.Float64() - 1
		v := 2*n.src.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		n.spare = v * f
		n.has = true
		return u * f
	}
}
