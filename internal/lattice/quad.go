package lattice

import (
	"fmt"
	"math"

	"binopt/internal/option"
)

// QuadPlan prices up to four options through one shared backward sweep,
// mirroring the stepsArray layout of the paper's exemplar kernels: the
// four lanes are interleaved in one flat [(n+1)*4]float64 buffer
// (cl_float4 quads), so every node visit touches four contiguous values
// and amortises the sweep's loop and memory traffic across four
// contracts. Each lane runs exactly the scalar reference's operation
// sequence in the engine's working precision, so the quad results are
// bit-identical to Plan.Exec — the parity sweep in quad_test.go pins
// that across rights, styles, depths, precisions and leaf modes. An
// all-put quad leaves out the nodes that provably stay +0 (sweepBound),
// which the reference would compute as +0 as well.
//
// The sweep also leaves every lane's node values at time levels 0–2 in
// a fixed array on the plan, bit-identical to Plan.ExecRetain's: the
// values the Greeks read delta, gamma and CRR theta from, so a base
// contract needs no scalar retained sweep of its own.
//
// A QuadPlan is single-shot scratch: Load derives the four lanes
// straight into the working buffers, Exec consumes them.
// Reload before executing again. Not safe for concurrent use; the batch
// pricer keeps one per worker.
type QuadPlan struct {
	eng   *Engine
	n     int
	lanes int // active lanes (1..4); unused lanes mirror lane 0

	// Per-lane coefficients in working precision.
	pu, pd, invD, strike [4]float64
	american, isCall     [4]bool

	// steps is the interleaved option-value buffer (the stepsArray);
	// ladder the interleaved asset-price ladder the early-exercise
	// comparisons read.
	steps  []float64
	ladder []float64

	// levels holds each lane's retained levels after Exec, packed level
	// by level: V(0,0), V(1,0), V(1,1), V(2,0), V(2,1), V(2,2).
	levels [4][retainedNodes]float64

	// wedge reports whether this quad may bound its sweep by zero, the
	// lowest column from which every lane holds exactly +0 at the
	// current level (see sweepBound); zero is n+1 while no such column
	// is known. visits counts the columns the sweeps have reduced, over
	// the plan's lifetime.
	wedge  bool
	zero   int
	visits int
}

// retainedLevels is how many time levels a sweep leaves on the plan
// (0–2, what the Greeks read); retainedNodes is their node count.
const (
	retainedLevels = 3
	retainedNodes  = retainedLevels * (retainedLevels + 1) / 2
)

// NewQuadPlan allocates quad scratch for the engine's depth.
func (e *Engine) NewQuadPlan() *QuadPlan {
	n := e.steps
	return &QuadPlan{
		eng:    e,
		n:      n,
		steps:  make([]float64, (n+1)*4),
		ladder: make([]float64, (n+1)*4),
	}
}

// Load plans 1–4 contracts into the four lanes. On error it names the
// failing position within opts.
func (q *QuadPlan) Load(opts []option.Option) error {
	lane, err := q.load(opts)
	if err != nil {
		return fmt.Errorf("lattice: quad lane %d: %w", lane, err)
	}
	return nil
}

// load is Load returning the failing lane index for callers that need to
// map it back onto a batch position.
func (q *QuadPlan) load(opts []option.Option) (int, error) {
	if len(opts) == 0 || len(opts) > 4 {
		return 0, fmt.Errorf("lattice: quad plan needs 1..4 options, got %d", len(opts))
	}
	e := q.eng
	rnd := rounder(e.single)
	n := q.n
	for i, o := range opts {
		lp, err := option.NewLatticeParams(o, n, e.param)
		if err != nil {
			return i, err
		}
		d := rnd(lp.D)
		q.pu[i], q.pd[i] = rnd(lp.Pu), rnd(lp.Pd)
		q.invD[i] = rnd(1 / d)
		q.strike[i] = rnd(o.Strike)
		q.american[i] = o.Style == option.American
		q.isCall[i] = o.Right == option.Call
		switch e.leaf {
		case LeafDevicePow:
			deviceLeafFill(q.ladder, 4, i, o.Spot, lp, e.pow, e.single)
		default:
			hostLeafFill(q.ladder, 4, i, o.Spot, lp, e.param, e.single)
		}
		for k := 0; k <= n; k++ {
			q.steps[k*4+i] = rnd(payoff(o.Right, q.ladder[k*4+i], q.strike[i]))
		}
	}
	q.lanes = len(opts)
	// Unused lanes mirror lane 0 so the sweep stays branch-free over a
	// full quad; their results are discarded.
	for i := q.lanes; i < 4; i++ {
		q.pu[i], q.pd[i] = q.pu[0], q.pd[0]
		q.invD[i], q.strike[i] = q.invD[0], q.strike[0]
		q.american[i], q.isCall[i] = q.american[0], q.isCall[0]
		for k := 0; k <= n; k++ {
			q.ladder[k*4+i] = q.ladder[k*4]
			q.steps[k*4+i] = q.steps[k*4]
		}
	}
	q.wedge = q.wedgeSafe()
	q.zero = n + 1
	q.shrinkZero(n)
	return 0, nil
}

// wedgeSafe reports whether the zero-wedge bound is exact for the
// loaded quad: every lane is a put with finite positive discounted
// probabilities, and every American lane steps its ladder up by a
// finite factor invD >= 1. The proof in sweepBound needs each of these;
// a non-finite pu or pd, for one, makes the reference compute
// Inf*0 = NaN on a zero child.
func (q *QuadPlan) wedgeSafe() bool {
	for i := range 4 {
		pu, pd, iv := q.pu[i], q.pd[i], q.invD[i]
		if q.isCall[i] || !(pu > 0 && pu <= math.MaxFloat64) || !(pd > 0 && pd <= math.MaxFloat64) {
			return false
		}
		if q.american[i] && !(iv >= 1 && iv <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// shrinkZero lowers zero past every column of level t (columns [0, t])
// whose four lanes all hold exactly +0, given that the columns from
// zero up already do. It does nothing when the bound is off.
func (q *QuadPlan) shrinkZero(t int) {
	if !q.wedge {
		return
	}
	z := min(q.zero, t+1)
	for z > 0 {
		r := q.steps[(z-1)*4 : z*4 : z*4]
		if math.Float64bits(r[0])|math.Float64bits(r[1])|math.Float64bits(r[2])|math.Float64bits(r[3]) != 0 {
			break
		}
		z--
	}
	q.zero = z
}

// Exec runs the straight interleaved sweep and returns the four lane
// values (entries past the loaded lane count mirror lane 0).
func (q *QuadPlan) Exec() [4]float64 {
	if q.n < retainedLevels {
		q.retain(q.n) // the leaf level is one of the retained ones
	}
	if q.eng.single {
		q.sweepSingle()
	} else {
		q.sweepDouble()
	}
	var out [4]float64
	copy(out[:], q.steps[:4])
	return out
}

// retain copies level t (t < retainedLevels) of every lane out of the
// interleaved buffer into levels.
func (q *QuadPlan) retain(t int) {
	off := t * (t + 1) / 2
	for k := 0; k <= t; k++ {
		for i := 0; i < 4; i++ {
			q.levels[i][off+k] = q.steps[k*4+i]
		}
	}
}

// sweepBound returns the end of level t's run, [0, hi): the level's
// columns [0, t] cut off at zero. The columns from zero up are the
// quad's zero wedge — for puts, the far out-of-the-money nodes at high
// k — and skipping them leaves every result bit-identical to the
// scalar reference, under the preconditions wedgeSafe checks:
//
//   - a node whose two children are +0 continues at
//     rnd(rnd(pu·0) + rnd(pd·0)) = +0 for finite positive pu, pd;
//   - an American put lane never exercises it. A zero node has
//     moneyness dd = rnd(strike − s) <= 0, i.e. s >= strike (rounding
//     is monotone and a difference of distinct floats never rounds to
//     zero; a NaN s is never exercised at all), and every later ladder
//     step rnd(s·invD) with invD >= 1 keeps s >= strike, again by
//     monotone rounding. The skipped ladder columns are therefore never
//     read: column zero is read only as the up-child of zero−1, through
//     its value;
//   - float32 rounding is monotone and sign-preserving too, so the same
//     holds in single precision.
//
// A skipped node keeps the +0 it held when it entered the wedge, which
// is its true value, so the retained levels 0–2 read from the buffer
// stay exact. Calls are excluded: their zero wedge sits at low k, where
// every level's ladder chain must keep updating.
func (q *QuadPlan) sweepBound(t int) int {
	hi := min(t+1, q.zero)
	q.visits += hi
	return hi
}

// sweepDouble is the double-precision interleaved backward sweep: each
// level is one contiguous run over columns [0, sweepBound(t)).
//
//binopt:kernel quad interleaved backward sweep (double precision)
func (q *QuadPlan) sweepDouble() {
	for t := q.n - 1; t >= 0; t-- {
		q.runDouble(q.steps, q.ladder, 0, q.sweepBound(t))
		q.shrinkZero(t)
		if t < retainedLevels {
			q.retain(t)
		}
	}
}

// sweepSingle is the single-precision interleaved sweep, rounding
// through float32 at exactly the scalar reference's points.
//
//binopt:kernel quad interleaved backward sweep (single precision)
func (q *QuadPlan) sweepSingle() {
	for t := q.n - 1; t >= 0; t-- {
		q.runSingle(q.steps, q.ladder, 0, q.sweepBound(t))
		q.shrinkZero(t)
		if t < retainedLevels {
			q.retain(t)
		}
	}
}

// runDouble reduces the contiguous columns [lo, hi) of one level, each
// column's up-neighbour sitting four slots ahead in v. The four lanes
// are unrolled with constant indices so the compiler eliminates the
// bounds checks and pins the per-lane coefficients in registers.
//
// The explicit float64 conversions around the products pin the
// two-rounding arithmetic of the scalar reference: the Go spec licenses
// fusing a multiply-add into one rounding unless an explicit conversion
// separates them, and a fused lane would break bit parity exactly the
// way a device-side FMA contraction would. The early-exercise test
// compares the raw moneyness against the continuation directly; this is
// bit-identical to the reference's max(moneyness, 0) comparison because
// node values are never negative (NewLatticeParams rejects
// probabilities outside (0,1), so both discounted weights are positive
// and every value is a non-negative combination of non-negative
// payoffs).
//
//binopt:kernel quad interleaved level reduction (double precision)
func (q *QuadPlan) runDouble(v, lad []float64, lo, hi int) {
	pu0, pu1, pu2, pu3 := q.pu[0], q.pu[1], q.pu[2], q.pu[3]
	pd0, pd1, pd2, pd3 := q.pd[0], q.pd[1], q.pd[2], q.pd[3]
	iv0, iv1, iv2, iv3 := q.invD[0], q.invD[1], q.invD[2], q.invD[3]
	sk0, sk1, sk2, sk3 := q.strike[0], q.strike[1], q.strike[2], q.strike[3]
	am0, am1, am2, am3 := q.american[0], q.american[1], q.american[2], q.american[3]
	cl0, cl1, cl2, cl3 := q.isCall[0], q.isCall[1], q.isCall[2], q.isCall[3]
	for k := lo; k < hi; k++ {
		b := k * 4
		row := v[b : b+8 : b+8]
		sl := lad[b : b+4 : b+4]

		s0 := sl[0] * iv0
		sl[0] = s0
		c0 := float64(pu0*row[4]) + float64(pd0*row[0])
		if am0 {
			var dd float64
			if cl0 {
				dd = s0 - sk0
			} else {
				dd = sk0 - s0
			}
			if dd > c0 {
				c0 = dd
			}
		}
		row[0] = c0

		s1 := sl[1] * iv1
		sl[1] = s1
		c1 := float64(pu1*row[5]) + float64(pd1*row[1])
		if am1 {
			var dd float64
			if cl1 {
				dd = s1 - sk1
			} else {
				dd = sk1 - s1
			}
			if dd > c1 {
				c1 = dd
			}
		}
		row[1] = c1

		s2 := sl[2] * iv2
		sl[2] = s2
		c2 := float64(pu2*row[6]) + float64(pd2*row[2])
		if am2 {
			var dd float64
			if cl2 {
				dd = s2 - sk2
			} else {
				dd = sk2 - s2
			}
			if dd > c2 {
				c2 = dd
			}
		}
		row[2] = c2

		s3 := sl[3] * iv3
		sl[3] = s3
		c3 := float64(pu3*row[7]) + float64(pd3*row[3])
		if am3 {
			var dd float64
			if cl3 {
				dd = s3 - sk3
			} else {
				dd = sk3 - s3
			}
			if dd > c3 {
				c3 = dd
			}
		}
		row[3] = c3
	}
}

// runSingle is runDouble with every operation rounded through float32
// at exactly the points the scalar reference's rounder does — including
// the moneyness, which the reference rounds before its comparison.
//
//binopt:kernel quad interleaved level reduction (single precision)
func (q *QuadPlan) runSingle(v, lad []float64, lo, hi int) {
	pu0, pu1, pu2, pu3 := q.pu[0], q.pu[1], q.pu[2], q.pu[3]
	pd0, pd1, pd2, pd3 := q.pd[0], q.pd[1], q.pd[2], q.pd[3]
	iv0, iv1, iv2, iv3 := q.invD[0], q.invD[1], q.invD[2], q.invD[3]
	sk0, sk1, sk2, sk3 := q.strike[0], q.strike[1], q.strike[2], q.strike[3]
	am0, am1, am2, am3 := q.american[0], q.american[1], q.american[2], q.american[3]
	cl0, cl1, cl2, cl3 := q.isCall[0], q.isCall[1], q.isCall[2], q.isCall[3]
	for k := lo; k < hi; k++ {
		b := k * 4
		row := v[b : b+8 : b+8]
		sl := lad[b : b+4 : b+4]

		s0 := float64(float32(sl[0] * iv0))
		sl[0] = s0
		u0 := float64(float32(pu0 * row[4]))
		d0 := float64(float32(pd0 * row[0]))
		c0 := float64(float32(u0 + d0))
		if am0 {
			var dd float64
			if cl0 {
				dd = float64(float32(s0 - sk0))
			} else {
				dd = float64(float32(sk0 - s0))
			}
			if dd > c0 {
				c0 = dd
			}
		}
		row[0] = c0

		s1 := float64(float32(sl[1] * iv1))
		sl[1] = s1
		u1 := float64(float32(pu1 * row[5]))
		d1 := float64(float32(pd1 * row[1]))
		c1 := float64(float32(u1 + d1))
		if am1 {
			var dd float64
			if cl1 {
				dd = float64(float32(s1 - sk1))
			} else {
				dd = float64(float32(sk1 - s1))
			}
			if dd > c1 {
				c1 = dd
			}
		}
		row[1] = c1

		s2 := float64(float32(sl[2] * iv2))
		sl[2] = s2
		u2 := float64(float32(pu2 * row[6]))
		d2 := float64(float32(pd2 * row[2]))
		c2 := float64(float32(u2 + d2))
		if am2 {
			var dd float64
			if cl2 {
				dd = float64(float32(s2 - sk2))
			} else {
				dd = float64(float32(sk2 - s2))
			}
			if dd > c2 {
				c2 = dd
			}
		}
		row[2] = c2

		s3 := float64(float32(sl[3] * iv3))
		sl[3] = s3
		u3 := float64(float32(pu3 * row[7]))
		d3 := float64(float32(pd3 * row[3]))
		c3 := float64(float32(u3 + d3))
		if am3 {
			var dd float64
			if cl3 {
				dd = float64(float32(s3 - sk3))
			} else {
				dd = float64(float32(sk3 - s3))
			}
			if dd > c3 {
				c3 = dd
			}
		}
		row[3] = c3
	}
}
