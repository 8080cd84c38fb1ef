package heston

import (
	"fmt"
	"math"

	"binopt/internal/rng"
)

// SimConfig parameterises a Heston Monte Carlo run.
type SimConfig struct {
	Paths int
	Steps int // Euler time steps over the option's life
	Seed  uint64
}

func (c SimConfig) validate() error {
	if c.Paths < 2 {
		return fmt.Errorf("heston: need at least 2 paths, got %d", c.Paths)
	}
	if c.Steps < 1 {
		return fmt.Errorf("heston: need at least 1 step, got %d", c.Steps)
	}
	return nil
}

// Estimate is a Monte Carlo price with its standard error.
type Estimate struct {
	Price  float64
	StdErr float64
	Paths  int
}

// stepState advances one full-truncation Euler step of (log S, v):
// the variance is floored at zero inside the drift and diffusion, the
// standard bias-minimising discretisation for the square-root process.
func stepState(p Params, x, v, dt, zs, zv float64) (float64, float64) {
	vp := v
	if vp < 0 {
		vp = 0
	}
	sq := math.Sqrt(vp * dt)
	x += (p.Rate-p.Div-0.5*vp)*dt + sq*zs
	v += p.Kappa*(p.Theta-vp)*dt + p.Xi*sq*zv
	return x, v
}

// correlate maps two independent standard normals to the correlated pair
// (z_s, z_v) with correlation rho.
func correlate(rho, z1, z2 float64) (zs, zv float64) {
	zv = z1
	zs = rho*z1 + math.Sqrt(1-rho*rho)*z2
	return zs, zv
}

// DownAndOutCallMC estimates a down-and-out barrier call: the option
// pays like a European call unless the spot touches the barrier at any
// monitoring date (the Euler grid), in which case it knocks out. This is
// the product class of the benchmark in [4]. The discrete monitoring
// bias shrinks as O(sqrt(dt)).
func DownAndOutCallMC(p Params, k, barrier, t float64, cfg SimConfig) (Estimate, error) {
	if err := p.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := cfg.validate(); err != nil {
		return Estimate{}, err
	}
	if !(k > 0) || !(t > 0) {
		return Estimate{}, fmt.Errorf("heston: strike and expiry must be positive")
	}
	if !(barrier > 0) || barrier >= p.Spot {
		return Estimate{}, fmt.Errorf("heston: down barrier %v must be positive and below spot %v", barrier, p.Spot)
	}
	dt := t / float64(cfg.Steps)
	disc := math.Exp(-p.Rate * t)
	logB := math.Log(barrier)
	norm := rng.NewNorm(rng.New(cfg.Seed))

	var sum, sumSq float64
	for i := 0; i < cfg.Paths; i++ {
		x := math.Log(p.Spot)
		v := p.V0
		alive := true
		for s := 0; s < cfg.Steps; s++ {
			zs, zv := correlate(p.Rho, norm.Next(), norm.Next())
			x, v = stepState(p, x, v, dt, zs, zv)
			if x <= logB {
				alive = false
				break
			}
		}
		y := 0.0
		if alive {
			if pay := math.Exp(x) - k; pay > 0 {
				y = disc * pay
			}
		}
		sum += y
		sumSq += y * y
	}
	n := float64(cfg.Paths)
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Estimate{Price: mean, StdErr: math.Sqrt(variance / n), Paths: cfg.Paths}, nil
}
