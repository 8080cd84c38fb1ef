// Command loadgen drives a pricesrvd instance with the paper's workload —
// the 2000-American-put volatility-curve chain — at configurable
// concurrency and request rate, and reports sustained throughput, latency
// quantiles and the server's modelled energy bill. It is the measurement
// half of the serving tier: the paper's 2000 options/s target becomes a
// number this tool either prints or doesn't.
//
//	pricesrvd -addr :8080 -steps 1024 &
//	loadgen -addr http://127.0.0.1:8080 -n 2000 -warmup 1 -passes 5
//
// Against a fleet there are two modes. -targets round-robins requests
// across the member nodes directly (client-side spreading, per-target
// breakdown in the report); -via-router sends everything through one
// cluster router entrypoint, measuring the fabric's own ring placement:
//
//	pricefleet -nodes 3 -addr :9090 &
//	loadgen -targets http://n0:8080,http://n1:8080,http://n2:8080
//	loadgen -via-router http://127.0.0.1:9090
//
// With -chaos the run becomes a fault-tolerance verdict: the report
// gains client-visible error and server-side retry rates, and the exit
// code is nonzero if any error reached a client — pair it with a
// pricesrvd started under -faults.
//
// With -slo the run becomes an SLO verdict too: after the measured
// passes loadgen fetches the target's /debug/slo burn-rate report and
// exits nonzero if either objective (latency, availability) is burning
// its error budget on both alert windows. The report also reconciles
// the per-request Server-Timing joules ledger against the server's
// modelled energy total.
//
// With -scenarios N the tool switches to the stress-testing endpoint:
// a deterministic book (default 24 positions, -book) is revalued under
// a spot×vol×rate grid of at least N shocks via POST /v1/scenarios,
// and the run passes only if every endpoint answers bit-identically
// with a nonzero VaR. Giving a solo node and a fleet router as two
// -targets turns it into the fabric's numerical-equivalence verdict:
//
//	loadgen -scenarios 1000 -targets http://solo:8080,http://router:9090
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"binopt/internal/slo"
	"binopt/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "base URL of the pricing server")
		targets     = flag.String("targets", "", "comma-separated node base URLs; requests round-robin across them and the report breaks down per target (overrides -addr)")
		viaRouter   = flag.String("via-router", "", "base URL of a cluster router; all requests go through this one entrypoint (overrides -addr and -targets)")
		n           = flag.Int("n", 2000, "options per volatility-curve pass (the paper's chain size)")
		seed        = flag.Int64("seed", 7, "chain generation seed")
		concurrency = flag.Int("concurrency", 4, "in-flight requests")
		batch       = flag.Int("batch", 250, "contracts per request")
		warmup      = flag.Int("warmup", 1, "unmeasured warmup passes (cold pricing, cache fill)")
		passes      = flag.Int("passes", 5, "measured passes over the chain")
		rps         = flag.Float64("rps", 0, "request-rate limit during measurement (0 = unlimited)")
		target      = flag.Float64("target", 2000, "options/s target to check the run against (0 = skip)")
		chaos       = flag.Bool("chaos", false, "chaos verdict: report error/retry rates and exit nonzero on any client-visible error (pair with pricesrvd -faults)")
		sloVerdict  = flag.Bool("slo", false, "SLO verdict: fetch the target's /debug/slo after the run and exit nonzero if any objective is burning its error budget")
		scenarios   = flag.Int("scenarios", 0, "scenario verdict: skip the load run; revalue a deterministic book under at least this many shocks via /v1/scenarios on every endpoint and require bit-identical answers and nonzero VaR")
		book        = flag.Int("book", 24, "positions in the scenario-mode book (with -scenarios)")
	)
	flag.Parse()

	// -via-router wins over -targets wins over -addr: one entrypoint,
	// client-side spreading, single node — in that order of preference.
	var targetList []string
	base := *addr
	switch {
	case *viaRouter != "":
		base = *viaRouter
	case *targets != "":
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targetList = append(targetList, t)
			}
		}
	}

	if *scenarios > 0 {
		// Scenario mode replaces the load run. Every endpoint — the
		// single -addr/-via-router base, or each -targets member — gets
		// the identical request and must answer it bit-identically;
		// point it at a solo node plus a fleet router to prove the
		// sharded revaluation is numerically invisible.
		endpoints := targetList
		if len(endpoints) == 0 {
			endpoints = []string{base}
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := runScenarios(ctx, endpoints, *scenarios, *book, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(base, targetList, *n, *seed, *concurrency, *batch, *warmup, *passes, *rps, *target, *chaos, *sloVerdict); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(addr string, targets []string, n int, seed int64, concurrency, batch, warmup, passes int, rps, target float64, chaos, sloVerdict bool) error {
	spec := workload.DefaultVolCurveSpec(seed)
	spec.N = n
	chain, err := workload.Chain(spec)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch {
	case len(targets) > 0:
		fmt.Printf("loadgen: %d-put chain (seed %d), %d warmup + %d measured passes, batch %d, concurrency %d, %d targets round-robin\n",
			n, seed, warmup, passes, batch, concurrency, len(targets))
	default:
		fmt.Printf("loadgen: %d-put chain (seed %d), %d warmup + %d measured passes, batch %d, concurrency %d\n",
			n, seed, warmup, passes, batch, concurrency)
	}
	if len(targets) == 0 {
		targets = []string{addr}
	}
	rep, err := runLoad(ctx, loadConfig{
		Targets:      targets,
		Options:      chain,
		Concurrency:  concurrency,
		BatchSize:    batch,
		WarmupPasses: warmup,
		Passes:       passes,
		RPS:          rps,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Text())
	if chaos {
		// The chaos verdict: a fault-tolerant pool absorbs injected shard
		// faults server-side (retries > 0 is the proof faults fired), and
		// no error ever reaches a client.
		fmt.Printf("chaos:    %d client-visible errors / %d requests (%.2f%%), %d server-side retries (%.3f per option)\n",
			rep.Errors, rep.Requests, 100*float64(rep.Errors)/float64(max(rep.Requests, 1)),
			rep.Retries, float64(rep.Retries)/float64(max(rep.Options, 1)))
		if rep.Errors > 0 {
			return fmt.Errorf("chaos verdict: %d client-visible errors — failover did not absorb the faults", rep.Errors)
		}
		fmt.Println("chaos verdict: pass — every fault absorbed server-side")
	}
	if target > 0 {
		if rep.OptionsPerSec >= target {
			fmt.Printf("target met: %.0f options/s sustained >= %.0f (paper §I use-case budget)\n", rep.OptionsPerSec, target)
		} else {
			fmt.Printf("target missed: %.0f options/s sustained < %.0f\n", rep.OptionsPerSec, target)
		}
	}
	if sloVerdict {
		if err := checkSLO(addr); err != nil {
			return err
		}
	}
	return nil
}

// checkSLO turns the run into an SLO verdict: fetch the target's
// burn-rate report after the measured passes and fail if any objective
// is burning on both windows. The report reflects everything the server
// observed during the run — the loadgen's own traffic is the load that
// either burned the budget or didn't.
func checkSLO(base string) error {
	resp, err := http.Get(base + "/debug/slo")
	if err != nil {
		return fmt.Errorf("slo verdict: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("slo verdict: GET /debug/slo: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var rep slo.Report
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rep); err != nil {
		return fmt.Errorf("slo verdict: decode /debug/slo: %w", err)
	}
	fmt.Printf("slo:      %d requests observed, burn threshold %.0f, windows %gs/%gs\n",
		rep.Requests, rep.BurnThreshold, rep.FastWindowSec, rep.SlowWindowSec)
	for _, o := range rep.Objectives {
		state := "ok"
		if o.Burning {
			state = "BURNING"
		}
		fmt.Printf("slo:      %-12s target %.4g  burn fast %.3g / slow %.3g  %s\n",
			o.Name, o.Target, o.FastBurn, o.SlowBurn, state)
	}
	if len(rep.Objectives) == 0 {
		fmt.Println("slo:      monitor disabled on the server (no objectives reported)")
	}
	if !rep.Healthy {
		return fmt.Errorf("slo verdict: error budget burning — the server's burn-rate monitor alerted during the run")
	}
	fmt.Println("slo verdict: pass — no objective burning")
	return nil
}
