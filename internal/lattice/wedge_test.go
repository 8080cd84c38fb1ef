package lattice_test

import (
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/workload"
)

// TestQuadZeroWedgeVisits pins that the quad sweep skips the zero wedge
// of an all-put quad and only of one. On the paper's vol-curve chain of
// American puts at 1024 steps, the far out-of-the-money nodes are +0 and
// the bounded sweep reduces about 0.72 of the full triangle's
// n(n+1)/2 columns per quad; one call lane turns the bound off, so that
// quad reduces exactly the full triangle.
func TestQuadZeroWedgeVisits(t *testing.T) {
	const n = 1024
	const full = n * (n + 1) / 2
	e, err := lattice.NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := workload.Chain(workload.DefaultVolCurveSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	chain = chain[:400]
	q := e.NewQuadPlan()
	for lo := 0; lo < len(chain); lo += 4 {
		if err := q.Load(chain[lo : lo+4]); err != nil {
			t.Fatal(err)
		}
		q.Exec()
	}
	quads := len(chain) / 4
	if r := float64(q.Visits()) / float64(quads*full); r > 0.75 {
		t.Errorf("vol-curve puts: %d quads reduced %.3f of the full triangle each, want <= 0.75", quads, r)
	}

	mixed := append([]option.Option(nil), chain[:4]...)
	mixed[2].Right = option.Call
	if err := q.Load(mixed); err != nil {
		t.Fatal(err)
	}
	before := q.Visits()
	q.Exec()
	if got := q.Visits() - before; got != full {
		t.Errorf("quad with a call lane reduced %d columns, want the full triangle %d", got, full)
	}
}
