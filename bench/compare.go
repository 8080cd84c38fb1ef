package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json. compare reads its workloads and each
// end-to-end metric's direction and bound; the tests check the rest.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := new(benchmarkFile)
	if err := json.Unmarshal(b, bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// winShare is the share of pairs the change must win to claim a gain.
const winShare = 0.9

// verdict classifies one (workload, metric) comparison of a parent's
// runs a against a change's runs b:
//
//   - improved: b wins at least 9 in 10 of the pairs (ties count for
//     neither side) and the medians differ by more than a's own
//     interquartile distance;
//   - unresolved: the run-to-run spread of either side exceeds the
//     bound, unless every run of b beats every run of a;
//   - regressed: b's median is worse than a's by more than the bound;
//   - unchanged: otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, int, int) {
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	if pairs > 0 && float64(wins) >= winShare*float64(pairs) && better(mb, ma) && math.Abs(mb-ma) > math.Abs(q3-q1) {
		return "improved", wins, pairs
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if !allBetter && (relSpread(a) > bound || relSpread(b) > bound) {
		return "unresolved", wins, pairs
	}
	if better(ma, mb) && math.Abs(mb-ma) > bound*math.Abs(ma) {
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}

// seriesBySeed collects one metric of one workload's untraced runs in
// seed order, so the i-th values of two sides form a pair.
func seriesBySeed(runs []*Result, workload, metric string) []float64 {
	var rs []*Result
	for _, r := range runs {
		if r.Env.Workload == workload && !r.Env.Trace {
			if _, ok := r.Metrics[metric]; ok {
				rs = append(rs, r)
			}
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Env.Seed < rs[j].Env.Seed })
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// compareMain compares two sets of runs against the bounds in the
// working directory's BENCHMARK.json.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT CHANGE (result directories or a pinned reference file)")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tpair wins\tbound\tverdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			av := seriesBySeed(a, w.Name, m.Name)
			bv := seriesBySeed(b, w.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, wins, pairs := verdict(av, bv, m.Better == "higher", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%g\t%s\n",
				w.Name, m.Name, summary(av), summary(bv), wins, pairs, m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	return 0
}

func summary(v []float64) string {
	q1, _, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(v), q1, q3, len(v))
}

// pinMain prints a results directory as a pinned reference file.
func pinMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: bench pin DIR > bench/reference.json")
		return 2
	}
	runs, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench pin:", err)
		return 1
	}
	ref := reference{
		Note: "pinned reference: the runs a later change is compared against with `bench compare`",
		Runs: runs,
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench pin:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
