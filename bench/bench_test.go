package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"binopt/internal/serve"
	"binopt/internal/telemetry"
	"binopt/internal/workload"
)

// TestPercentileRule pins the rule every reported tail follows: a
// percentile is reported only over a sample that leaves at least ten
// samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want int
	}{{50, 20}, {75, 40}, {90, 100}, {99, 1000}, {99.9, 10000}} {
		n := samplesFor(tc.p)
		if n != tc.want {
			t.Errorf("samplesFor(p%v) = %d, want %d", tc.p, n, tc.want)
		}
		if beyond(n, tc.p) < minBeyond || beyond(n-1, tc.p) >= minBeyond {
			t.Errorf("p%v: %d samples leave %d beyond and %d leave %d; want %d to be the fewest leaving %d",
				tc.p, n, beyond(n, tc.p), n-1, beyond(n-1, tc.p), n, minBeyond)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p := percentile(s, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", p)
	}
	if p := percentile(s, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
}

// TestCleanWindows checks the clean-window figures: work is spread over
// the time a request was in service, windows a stall slowed are left
// out, and the clean set grows until the percentile rule has its
// samples.
func TestCleanWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	price := &request{path: "/v1/price"}
	// A closed loop: twenty 1-second requests of 100 options back to
	// back; the sixth to eighth take 3 seconds, as if the machine
	// stalled under them.
	var recs []record
	now := 0.0
	for i := 0; i < 20; i++ {
		d := 1.0
		if i >= 5 && i < 8 {
			d = 3
		}
		recs = append(recs, record{req: price, res: result{options: 100}, due: at(now), start: at(now), end: at(now + d)})
		now += d
	}
	f := figures(recs, false, 50)
	if math.Abs(f.rate-100) > 1e-9 {
		t.Errorf("closed-loop rate = %v options/s, want 100 (the stalled windows are left out)", f.rate)
	}
	if len(f.lat) != 20 {
		t.Errorf("p50 needs 20 samples, the clean windows hold %d; want every request", len(f.lat))
	}
	ws := cutWindows(recs, runWindows)
	clean := cleanWindows(ws, false, 1)
	if len(clean) != runWindows/4 {
		t.Fatalf("%d clean windows, want the best quarter, %d", len(clean), runWindows/4)
	}
	for _, w := range clean {
		if math.Abs(w.rate-100) > 1e-9 {
			t.Errorf("a clean window answered %v options/s; a stalled one was kept", w.rate)
		}
		for _, l := range w.lat {
			if l != 1000 {
				t.Errorf("a clean window holds a %v ms request; want only the 1000 ms ones", l)
			}
		}
	}

	// An open loop: 400 requests due 10ms apart answer in 2ms during the
	// first second, 50ms during the second and 3ms after. Its windows
	// rank by latency, and its rate is the whole run's.
	var open []record
	for i := 0; i < 400; i++ {
		s := float64(i) / 100
		d := 0.003
		switch {
		case s < 1:
			d = 0.002
		case s < 2:
			d = 0.05
		}
		open = append(open, record{req: price, res: result{options: 2}, due: at(s), start: at(s), end: at(s + d)})
	}
	f = figures(open, true, 50)
	if f.clean != runWindows/4 || len(f.lat) != 100 {
		t.Errorf("open loop: %d windows and %d samples, want %d and 100", f.clean, len(f.lat), runWindows/4)
	}
	if p := percentile(f.lat, 100); math.Abs(p-2) > 1e-6 {
		t.Errorf("open loop: slowest clean request took %v ms, want 2", p)
	}
	if want := 800 / 3.993; math.Abs(f.rate-want) > 1e-6 {
		t.Errorf("open loop rate = %v options/s, want the whole run's %v", f.rate, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// TestOpenLoopTimesFromDueTime stalls the first of three requests due
// 10ms apart on a single sender: the two behind it are sent late, and
// their latency counts the wait from when they were due.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	sched := []*request{{id: 0}, {id: 1, due: 10 * time.Millisecond}, {id: 2, due: 20 * time.Millisecond}}
	const stall = 80 * time.Millisecond
	send := func(ctx context.Context, r *request) result {
		if r.id == 0 {
			time.Sleep(stall)
		}
		return result{}
	}
	recs := openLoop(context.Background(), 1, sched, send)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	t0 := recs[0].due
	for i, r := range recs {
		if got := r.due.Sub(t0); got != sched[i].due {
			t.Errorf("request %d due at %v, want %v", i, got, sched[i].due)
		}
		if r.latency() != r.end.Sub(r.due) || r.lateness() != r.start.Sub(r.due) {
			t.Errorf("request %d: latency/lateness not measured from the due time", i)
		}
	}
	if late := recs[1].lateness(); late < stall-10*time.Millisecond-2*time.Millisecond {
		t.Errorf("request 1 lateness %v, want about %v", late, stall-10*time.Millisecond)
	}
	if recs[2].latency() < recs[2].lateness() {
		t.Errorf("latency %v shorter than lateness %v", recs[2].latency(), recs[2].lateness())
	}
	if got := maxBacklog(recs); got != 2 {
		t.Errorf("maxBacklog = %d, want 2 (requests 1 and 2 waited together)", got)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	var sched []*request
	for i := 0; i < 5; i++ {
		sched = append(sched, &request{id: i, due: time.Duration(i) * 5 * time.Millisecond})
	}
	var calls atomic.Int64
	recs := openLoop(context.Background(), 2, sched, func(context.Context, *request) result {
		calls.Add(1)
		return result{}
	})
	if calls.Load() != 5 || len(recs) != 5 {
		t.Fatalf("%d calls, %d records; want 5, 5", calls.Load(), len(recs))
	}
	for i, r := range recs {
		if r.start.Before(r.due) {
			t.Errorf("request %d sent %v before it was due", i, r.due.Sub(r.start))
		}
	}
	if got := maxBacklog(recs); got > 1 {
		t.Errorf("an idle generator built a backlog of %d", got)
	}
}

// TestClosedLoopConcurrent draws from a shared generator on several
// clients: every request is handed out once, in a stream of distinct
// contracts, whatever the interleaving.
func TestClosedLoopConcurrent(t *testing.T) {
	sz := defaultSizes()
	sz.ChainPer = 5
	in, err := curveColdInputs(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	recs := closedLoop(context.Background(), 4, 30*time.Millisecond, in.next, func(_ context.Context, r *request) result {
		time.Sleep(time.Millisecond)
		return result{options: len(r.opts)}
	})
	ids := map[int]bool{}
	strikes := map[float64]bool{}
	for _, r := range recs {
		if ids[r.req.id] {
			t.Fatalf("request %d handed out twice", r.req.id)
		}
		ids[r.req.id] = true
		for _, o := range r.req.opts {
			if strikes[o.Strike] {
				t.Fatalf("contract with strike %v sent twice in a cold stream", o.Strike)
			}
			strikes[o.Strike] = true
		}
	}
	if len(recs) < 4 {
		t.Errorf("only %d requests in 30ms on 4 clients", len(recs))
	}
}

// TestRungSpansConcurrent emits call spans from several goroutines, as
// the end-to-end pass does, and checks the per-rung cap.
func TestRungSpansConcurrent(t *testing.T) {
	l := &ladder{
		cfg:  runConfig{workload: workloads[0]},
		tr:   telemetry.New(spanRingSlots),
		proc: "bench test",
	}
	sp := l.rung("e2e")
	const goroutines, each = 4, maxCallSpans / 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				now := time.Now()
				l.emit(sp, "call", i, now, now)
			}
		}()
	}
	wg.Wait()
	sp.end()
	if got := sp.calls.Load(); got != goroutines*each {
		t.Errorf("counted %d calls, want %d", got, goroutines*each)
	}
	if got := l.tr.Len(); got != maxCallSpans+1 {
		t.Errorf("%d spans retained, want %d call spans plus the rung", got, maxCallSpans+1)
	}
}

func TestParseMetrics(t *testing.T) {
	text := strings.Join([]string{
		"# HELP ignored",
		`binopt_options_priced_total 1200`,
		`binopt_modelled_joules_total 8.26e+00`,
		`binopt_phase_seconds_mean{phase="queue"} 0.25`,
		`binopt_option_latency_seconds_bucket{le="0.01"} 7 # {trace_id="abc"} 0.004 1700000000.000`,
		`binopt_node_forwards_total{node="node-0"} 3`,
		`garbage line`,
		`binopt_bad_value NaNx`,
		``,
	}, "\n")
	m := parseMetrics(text)
	want := map[string]float64{
		"binopt_options_priced_total":                     1200,
		"binopt_modelled_joules_total":                    8.26,
		`binopt_phase_seconds_mean{phase="queue"}`:        0.25,
		`binopt_option_latency_seconds_bucket{le="0.01"}`: 7,
		`binopt_node_forwards_total{node="node-0"}`:       3,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if len(m) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(m), len(want), m)
	}
	if j, p := energy(m); j != 8.26 || p != 1200 {
		t.Errorf("node energy = %v J over %v options, want 8.26 over 1200", j, p)
	}
	fleet := map[string]float64{"binopt_fleet_modelled_joules_total": 2, "binopt_fleet_options_priced_total": 100, "binopt_modelled_joules_total": 99}
	if j, p := energy(fleet); j != 2 || p != 100 {
		t.Errorf("fleet energy = %v J over %v options, want the fleet roll-up 2 over 100", j, p)
	}
}

// TestScrapeLiveServer scrapes a real serve.Server's /metrics and a
// real Server-Timing header.
func TestScrapeLiveServer(t *testing.T) {
	srv, err := serve.New(serve.Config{Steps: 64, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	base, closeHTTP, err := listen(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer closeHTTP()
	client := newHTTPClient(1)
	opts, err := workload.MixedBatch(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := priceRequest(0, opts)
	res := httpSender(client, base)(context.Background(), r)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.options != 3 || res.timing["priced"] != 3 || res.timing["joules"] <= 0 {
		t.Errorf("options %d, Server-Timing %v: want 3 priced with their joules", res.options, res.timing)
	}
	m, err := scrapeMetrics(context.Background(), client, base)
	if err != nil {
		t.Fatal(err)
	}
	if j, p := energy(m); p != 3 || j <= 0 {
		t.Errorf("energy ledger %v J over %v options, want 3 options", j, p)
	}
	if got := scrapeHandler(srv.Handler())["binopt_options_served_total"]; got != 3 {
		t.Errorf("in-process scrape: served %v, want 3", got)
	}
}

func TestParseServerTiming(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   map[string]float64
	}{
		{"batch;dur=1.5, queue;dur=2, compute;dur=10, readback;dur=0.1, priced;dur=4, joules;dur=0.02",
			map[string]float64{"batch": 1.5, "queue": 2, "compute": 10, "readback": 0.1, "priced": 4, "joules": 0.02}},
		{"expand;dur=0.1, price;dur=250.5, aggregate;dur=0.2, evals;dur=408, joules;dur=6.4",
			map[string]float64{"expand": 0.1, "price": 250.5, "aggregate": 0.2, "evals": 408, "joules": 6.4}},
		{`compute;desc="fpga";dur=3`, map[string]float64{"compute": 3}},
		{"cache, queue;dur=oops, ;dur=4, batch;dur=1", map[string]float64{"batch": 1}},
		{"", nil},
	} {
		got := parseServerTiming(tc.header)
		if len(got) != len(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.header, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("%q: %s = %v, want %v", tc.header, k, got[k], v)
			}
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	mb, err := parseVmHWM(strings.NewReader("Name:\tpricesrvd\nVmPeak:\t  99 kB\nVmHWM:\t   35052 kB\n"))
	if err != nil || math.Abs(mb-35052.0/1024) > 1e-9 {
		t.Errorf("parseVmHWM = %v, %v; want %v MiB", mb, err, 35052.0/1024)
	}
	if _, err := parseVmHWM(strings.NewReader("Name: x\n")); err == nil {
		t.Error("missing VmHWM parsed without error")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	slower := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 100, 90, 110}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", parent, "unchanged"},
		{"faster", faster, "improved"},
		{"slower", slower, "regressed"},
		{"noisy", noisy, "unresolved"},
	} {
		if got, _, _ := verdict(parent, tc.b, true, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Lower-is-better flips the reading of the same numbers.
	if got, _, _ := verdict(parent, slower, false, 0.1); got != "improved" {
		t.Errorf("lower-is-better slower series: %q, want improved", got)
	}
}

// TestBenchmarkFile holds BENCHMARK.json to its format's limits and to
// the metrics and workloads this program implements.
func TestBenchmarkFile(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	bf, err := readBenchmarkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			t.Errorf("workload %d is %q/%q in BENCHMARK.json but %q/%q in the program", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end-to-end %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit) {
			t.Errorf("end-to-end metric %d differs: BENCHMARK.json %+v, program %+v", i, m, endToEnd[i])
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v, want the largest bound %v", m.Bound, maxBound)
		}
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per-layer metric %d differs: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}

	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", bf.RunSeconds)
	}
	if n := len(bf.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1-16", n)
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if n := len(bf.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1-32", n)
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is not allowed", c)
		}
	}
}
