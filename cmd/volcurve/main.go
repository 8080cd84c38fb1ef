// Command volcurve runs the paper's motivating use case: recover one
// implied-volatility curve from a chain of option quotes (2000 by
// default) and report the modelled accelerator cost of the pricing
// workload against the one-second-per-curve target.
//
//	volcurve -quotes 2000 -steps 1024 -seed 7
//
// Reducing -steps makes the host-side inversion fast enough for casual
// runs; the modelled FPGA timing always uses the requested depth.
package main

import (
	"flag"
	"fmt"
	"os"

	"binopt"
)

func main() {
	var (
		quotes  = flag.Int("quotes", 2000, "options per volatility curve")
		steps   = flag.Int("steps", 256, "tree depth for quote generation and inversion")
		seed    = flag.Int64("seed", 7, "chain generation seed")
		workers = flag.Int("workers", 0, "goroutines per batch pricing, for the reference quotes and each solver round (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if err := run(*quotes, *steps, *seed, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "volcurve:", err)
		os.Exit(1)
	}
}

func run(quotes, steps int, seed int64, workers int) error {
	res, err := binopt.VolCurve(binopt.VolCurveConfig{
		Quotes: quotes, Steps: steps, Seed: seed, Workers: workers,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Text)
	if res.FPGASeconds <= 1 {
		fmt.Printf("use-case target met: %.3f s per curve on the modelled DE4 (< 1 s)\n", res.FPGASeconds)
	} else {
		fmt.Printf("use-case target missed: %.3f s per curve on the modelled DE4 (> 1 s)\n", res.FPGASeconds)
	}
	return nil
}
