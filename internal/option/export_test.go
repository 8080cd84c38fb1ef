package option

import "math"

// LeafPrice returns the underlying price at leaf k of the tree (k up-moves
// out of Steps), i.e. S0 * u^k * d^(Steps-k). For CRR this telescopes to
// S0 * u^(2k-Steps), the form the device-side leaf initialisation uses via
// its Power operator (the source of the paper's RMSE issue).
func (lp LatticeParams) LeafPrice(spot float64, k int) float64 {
	return spot * math.Pow(lp.U, float64(k)) * math.Pow(lp.D, float64(lp.Steps-k))
}

// NodeCount returns the total number of tree nodes N(N+1)/2 + N+1 counted
// the way the paper counts "tree nodes/s" throughput: the number of
// work-items needed to process one option, N(N+1)/2.
func (lp LatticeParams) NodeCount() int64 {
	n := int64(lp.Steps)
	return n * (n + 1) / 2
}
