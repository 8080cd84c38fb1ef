package lattice

import (
	"math"
	"testing"

	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// FuzzQuadPlanVsPlan is the differential fuzzer of the quad sweep: one
// to four random valid contracts loaded into a QuadPlan must each
// reproduce the scalar Plan.ExecRetain bit for bit, in their price and
// in every retained node of levels 0–2. The quad kernels compare raw
// moneyness where the reference takes max(moneyness, 0), which is exact
// only while p stays inside (0,1); the seeds therefore sit at the
// numeric edges where the Greeks' σ−h bump lanes land — tiny and huge
// σ√dt, t → 0, and p near 0 or 1.
//
// mode selects the engine: bit 0 single precision, bit 1 device-side
// leaves, bits 2–3 the parameterisation (CRR, Jarrow–Rudd, Tian,
// Leisen–Reimer). Each byte of vary perturbs one lane: its right, its
// style and a volatility and strike multiplier, so one group can mix
// exercise boundaries. Spot, strike, volatility and expiry enter by
// magnitude and steps modulo 2048, so most mutations stay priceable;
// contracts the lattice still rejects are dropped, and a load that
// includes one must fail.
func FuzzQuadPlanVsPlan(f *testing.F) {
	f.Add(uint16(64), uint8(0), uint8(4), 100.0, 105.0, 0.03, 0.2, 0.5, uint64(0x0f0a0501))
	f.Add(uint16(1024), uint8(1), uint8(3), 100.0, 100.0, 0.05, 0.2, 1.0, uint64(0x03020100))
	f.Add(uint16(2), uint8(0), uint8(4), 100.0, 105.0, 0.03, 0.2, 0.5, uint64(0x0f0a0501))
	f.Add(uint16(96), uint8(4), uint8(2), 80.0, 100.0, 0.02, 0.4, 2.0, uint64(0x00ff00ff))
	f.Add(uint16(65), uint8(12), uint8(4), 100.0, 95.0, 0.01, 0.3, 1.0, uint64(0x01020304))
	f.Add(uint16(64), uint8(2), uint8(1), 100.0, 105.0, 0.03, 0.2, 0.5, uint64(3))
	f.Fuzz(func(t *testing.T, steps uint16, mode, lanes uint8, spot, strike, rate, sigma, expiry float64, vary uint64) {
		e := mustEngine(t, max(1, int(steps)%2048))
		if mode&1 != 0 {
			e = e.WithSinglePrecision()
		}
		if mode&2 != 0 {
			e = e.WithDeviceLeaves(hwmath.Accurate13SP1)
		}
		e = e.WithParameterisation([]option.Parameterisation{
			option.CRR, option.JarrowRudd, option.Tian, option.LeisenReimer,
		}[mode>>2&3])

		var all, valid []option.Option
		for i := 0; i < 1+int(lanes-1)%4; i++ { // lanes 1–4 map to themselves
			b := uint8(vary >> (8 * i))
			o := option.Option{
				Right: option.Put, Style: option.European,
				Spot: math.Abs(spot), Strike: math.Abs(strike) * (1 + float64(b>>5)/8),
				Rate: rate, Sigma: math.Abs(sigma) * (1 + float64(b>>2&7)/4), T: math.Abs(expiry),
			}
			if b&1 != 0 {
				o.Right = option.Call
			}
			if b&2 != 0 {
				o.Style = option.American
			}
			all = append(all, o)
			if _, err := option.NewLatticeParams(o, e.steps, e.param); err == nil {
				valid = append(valid, o)
			}
		}
		q := e.NewQuadPlan()
		if len(valid) < len(all) {
			if err := q.Load(all); err == nil {
				t.Fatalf("quad plan accepted a lane the lattice rejects: %v", all)
			}
		}
		if len(valid) == 0 {
			return
		}
		if err := q.Load(valid); err != nil {
			t.Fatalf("quad plan rejected valid lanes %v: %v", valid, err)
		}
		got := q.Exec()
		for i, o := range valid {
			p, err := e.NewPlan(o)
			if err != nil {
				t.Fatalf("lane %d: scalar plan rejected a valid contract %v: %v", i, o, err)
			}
			want, kept := p.ExecRetain(retainedLevels)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("lane %d %v: quad price %v (%#x) != scalar %v (%#x)",
					i, o, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
			lv := q.levels[i]
			for lvl, vals := range kept {
				for k, v := range vals {
					if g := lv[lvl*(lvl+1)/2+k]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("lane %d %v: level %d node %d: quad %v (%#x) != scalar %v (%#x)",
							i, o, lvl, k, g, math.Float64bits(g), v, math.Float64bits(v))
					}
				}
			}
		}
	})
}
