// Command bench is binopt's layer-ladder benchmark. The untraced run
// builds cmd/pricesrvd and cmd/pricefleet, starts them with default
// flags on a free loopback port, drives one seeded workload against
// them from this process, checks the answers against the scalar
// reference lattice and prints every end-to-end metric. The traced run
// replays the same seeded inputs through each layer's public entry
// point in turn — lattice, accel, serve, HTTP, router, scenario — and
// prints the per-layer metrics, writing every timed call as a span to a
// Chrome trace-event file. See README.md.
//
// Run it from the repository root through the launcher, which keeps the
// Go build cache inside the checkout:
//
//	sh bench/run.sh -workload curve-cold -seed 1 -seconds 25 -trace 0
//	sh bench/run.sh -workload fleet-warm -seed 1 -trace 1 -spans t.json
//	sh bench/run.sh -seed 1                 # every workload
//	sh bench/run.sh compare A/ B/           # two result directories
//	sh bench/run.sh pin DIR > bench/reference.json
//
// The last line of a single-workload run is one JSON object with the
// keys correct, attempted, failed and metrics. The process exits
// nonzero on any wrong answer.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "pin":
			return pinMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root    = fs.String("root", ".", "repository root: the source tree the servers are built from")
		name    = fs.String("workload", "all", "workload to run: curve-cold, quotes-open, scenario-grid, fleet-warm, or all")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 25, "how long one run measures")
		trace   = fs.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end measurement")
		spans   = fs.String("spans", "", "traced run: the Chrome trace-event file to write (default .bench_build/spans-WORKLOAD-seedN.json)")
		outDir  = fs.String("out", "", "directory the result files are written to (default .bench_build/results)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var defs []*workloadDef
	if *name == "all" {
		defs = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		defs = []*workloadDef{w}
	}
	if *outDir == "" {
		*outDir = defaultOutDir(*root)
	}

	bins, err := buildBinaries(ctx, *root, filepath.Join(*root, ".bench_build", "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	code := 0
	for _, w := range defs {
		cfg := runConfig{
			workload: w,
			seed:     *seed,
			dur:      time.Duration(*seconds * float64(time.Second)),
			sizes:    defaultSizes(),
			boots:    setupBoots,
			launch:   processLauncher(bins),
			spans:    *spans,
		}
		if cfg.spans == "" {
			cfg.spans = defaultSpans(*root, w.name, *seed)
		}
		env := captureEnv(*root)
		env.Workload, env.Seed, env.Seconds, env.Trace = w.name, *seed, *seconds, *trace == 1
		var (
			res *Result
			err error
		)
		if env.Trace {
			res, err = runTraced(ctx, cfg, env)
		} else {
			res, err = runUntraced(ctx, cfg, env)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if path, err := res.save(*outDir); err != nil {
			fmt.Fprintf(stderr, "bench: saving result: %v\n", err)
			return 1
		} else {
			fmt.Fprintf(stderr, "bench: %s: result written to %s\n", w.name, path)
		}
		if err := res.print(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
