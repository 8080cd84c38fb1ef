//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// throughput smoke test skips itself under race, where the instrumented
// lattice is an order of magnitude slower than any modelled device.
const raceEnabled = false
