package lattice

// Visits reports how many columns the plan's sweeps have reduced, summed
// over every Exec.
func (q *QuadPlan) Visits() int { return q.visits }
