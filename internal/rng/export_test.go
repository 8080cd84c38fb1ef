package rng

// Antithetic yields pairs (z, -z) from an underlying Gaussian source —
// the classic variance-reduction device used throughout the option
// pricing Monte Carlo literature.
type Antithetic struct {
	src  *Norm
	last float64
	flip bool
}

// NewAntithetic wraps a Gaussian source.
func NewAntithetic(src *Norm) *Antithetic { return &Antithetic{src: src} }

// Next returns the next variate of the antithetic stream.
func (a *Antithetic) Next() float64 {
	if a.flip {
		a.flip = false
		return -a.last
	}
	a.last = a.src.Next()
	a.flip = true
	return a.last
}
