package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric. The catalogues below are the
// single list of what the benchmark reports; BENCHMARK.json, which adds
// each metric's direction and bound, must agree with them (a test holds
// the two together).
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the service sees, reported by the
// untraced run on every workload.
var endToEnd = []metricDef{
	{"options_per_s", "options/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"joules_per_option", "J/option"},
	{"setup_s", "s"},
	{"server_rss_mb", "MiB"},
}

// perLayer are the ladder's metrics, reported by the traced run on
// every workload. A rung the workload's requests never reach reads 0.
var perLayer = []metricDef{
	{"lattice.scalar_us_per_option", "us"},
	{"lattice.quad_us_per_option", "us"},
	{"lattice.allocs_per_option", "count"},
	{"lattice.greeks_us_per_position", "us"},
	{"accel.overhead_us_per_option", "us"},
	{"accel.allocs_per_batch", "count"},
	{"accel.modelled_joules_per_option", "J/option"},
	{"serve.overhead_us_per_option", "us"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.compute_ms", "ms"},
	{"serve.readback_ms", "ms"},
	{"serve.batch_path_share", "ratio"},
	{"serve.batch_size_mean", "options"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.allocs_per_option", "count"},
	{"http.overhead_us_per_request", "us"},
	{"http.request_bytes", "bytes"},
	{"http.response_bytes", "bytes"},
	{"router.overhead_us_per_request", "us"},
	{"router.forwards_per_request", "count"},
	{"router.failovers", "count"},
	{"router.hedges", "count"},
	{"scenario.revalue_ms", "ms"},
	{"scenario.http_overhead_ms", "ms"},
	{"scenario.evals_per_request", "count"},
	{"ladder.residual_pct", "%"},
	{"loadgen.send_lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// Metric is one measured value with the sample count behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// Result is one run of one workload, as written to the results
// directory.
type Result struct {
	Env        Env               `json:"env"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
	Mismatches []string          `json:"mismatches,omitempty"`
}

// catalogue returns the metric list a result of this kind reports.
func (r *Result) catalogue() []metricDef {
	if r.Env.Trace {
		return perLayer
	}
	return endToEnd
}

// set stores a metric under its catalogue unit.
func (r *Result) set(name string, value float64, n int, note string) {
	for _, d := range r.catalogue() {
		if d.name == name {
			if math.IsNaN(value) || math.IsInf(value, 0) {
				value, note = 0, strings.TrimSpace(note+" (no samples)")
			}
			r.Metrics[name] = Metric{Value: value, Unit: d.unit, N: n, Note: note}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
}

// print writes one human line per metric and then the machine line:
// a JSON object with exactly correct, attempted, failed and metrics.
func (r *Result) print(w io.Writer) error {
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]short)}
	for _, d := range r.catalogue() {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		note := ""
		if m.Note != "" {
			note = ", " + m.Note
		}
		fmt.Fprintf(w, "%s %s %.6g %s (n=%d%s)\n", r.Env.Workload, d.name, m.Value, m.Unit, m.N, note)
		line.Metrics[d.name] = short{m.Value, m.Unit}
	}
	for _, msg := range r.Mismatches {
		fmt.Fprintf(w, "%s MISMATCH %s\n", r.Env.Workload, msg)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the result into dir under a name keyed by workload, seed
// and mode, so a directory of runs is what compare reads.
func (r *Result) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if r.Env.Trace {
		mode = "ladder"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Env.Workload, r.Env.Seed, mode))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadResults reads every result in dir, or every run of a pinned
// reference file ({"runs": [...]}), in a stable order.
func loadResults(path string) ([]*Result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var ref reference
		if err := json.Unmarshal(b, &ref); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return ref.Runs, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []*Result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := new(Result)
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// reference is the pinned-reference file format: a set of runs, each
// carrying its own environment record.
type reference struct {
	Note string    `json:"note,omitempty"`
	Runs []*Result `json:"runs"`
}
