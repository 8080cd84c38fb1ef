package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"binopt/internal/scenario"
)

// smokeSizes are the benchmark's workloads at about 1% scale.
func smokeSizes() sizes {
	sz := defaultSizes()
	sz.ChainPer = 5
	sz.QuoteHot = 4
	sz.FleetHot = 10
	sz.Tick = 100 * time.Millisecond
	sz.Book = 4
	sz.Grid = scenario.GridSpec{Spot: scenario.Axis{From: 0.9, To: 1.1, N: 2}}
	return sz
}

// TestSmokeAllWorkloads runs every workload untraced and traced against
// the in-process stack at about 1% scale: answers must check out and
// every metric of both catalogues must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if raceEnabled {
		t.Skip("timing smoke; the race detector slows the lattice tenfold")
	}
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				workload: w,
				seed:     3,
				dur:      200 * time.Millisecond,
				sizes:    smokeSizes(),
				boots:    1,
				launch:   inprocLauncher,
				spans:    filepath.Join(dir, w.name+".json"),
			}
			env := Env{Workload: w.name, Seed: 3, Trace: traced}
			var (
				res *Result
				err error
			)
			if traced {
				res, err = runTraced(context.Background(), cfg, env)
			} else {
				res, err = runUntraced(context.Background(), cfg, env)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Mismatches)
			}
			for _, d := range res.catalogue() {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				}
			}
			if !traced {
				for _, name := range []string{"options_per_s", "latency_p50_ms", "joules_per_option", "setup_s", "server_rss_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
				t.Errorf("%s: span file not written: %v", w.name, err)
			}
		}
	}
	if el := time.Since(start); el > 20*time.Second {
		t.Errorf("smoke took %v, budget 20s", el)
	}
}
