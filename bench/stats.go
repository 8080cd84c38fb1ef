package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples: the smallest sample with at least p% of all samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples.
func rankOf(n int, p float64) int {
	// The tolerance keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked strictly past the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to say anything about the tail.
const minBeyond = 10

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value of v (mean of the middle two for even n).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default "exclusive" method),
// so the spreads bench compare prints match Python's.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// mean is the arithmetic mean of v (NaN for no samples).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// runWindows is how many equal windows a run is cut into, and
// cleanShare the best share of them a run's figures are taken over.
// Other tenants of a shared machine slow it down in bursts of a few
// seconds; taking the figures over the windows the service fared best
// in measures the service, not those bursts.
const (
	runWindows = 40
	cleanShare = 0.25
)

// samplesFor is the fewest samples that leave minBeyond beyond the p-th
// percentile.
func samplesFor(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// interval is the span the records cover: from the first due time to
// the last answer.
func interval(recs []record) (t0, t1 time.Time) {
	for i, r := range recs {
		if i == 0 || r.due.Before(t0) {
			t0 = r.due
		}
		if i == 0 || r.end.After(t1) {
			t1 = r.end
		}
	}
	return t0, t1
}

// window is one equal slice of a run.
type window struct {
	// rate is the work answered in the window per second. Each
	// successful request's work (options, or scenario evaluations) is
	// spread evenly over the time it was in service, so a long request
	// counts in every window it spans instead of landing whole in the
	// one where it ended.
	rate float64
	// lat holds the latencies (ms) of the pricing requests that
	// completed in the window.
	lat []float64
}

// cutWindows cuts a run, from its first due time to its last answer,
// into n equal windows. A run with no extent has no windows.
func cutWindows(recs []record, n int) []window {
	t0, t1 := interval(recs)
	if !t1.After(t0) {
		return nil
	}
	width := t1.Sub(t0).Seconds() / float64(n)
	at := func(t time.Time) int { return min(n-1, int(t.Sub(t0).Seconds()/width)) }
	ws := make([]window, n)
	for _, r := range recs {
		if r.res.err != nil {
			continue
		}
		w := float64(r.res.options) + float64(r.res.evals)
		a, b := r.start.Sub(t0).Seconds(), r.end.Sub(t0).Seconds()
		if b <= a {
			ws[at(r.start)].rate += w
		} else {
			for i := at(r.start); i < n && float64(i)*width < b; i++ {
				lo, hi := math.Max(a, float64(i)*width), math.Min(b, float64(i+1)*width)
				ws[i].rate += w * (hi - lo) / (b - a)
			}
		}
		if r.req.path != "/v1/invalidate" {
			i := at(r.end)
			ws[i].lat = append(ws[i].lat, float64(r.latency())/float64(time.Millisecond))
		}
	}
	for i := range ws {
		ws[i].rate /= width
	}
	return ws
}

// cleanWindows returns the best cleanShare of ws, extended in rank order
// until their requests number at least need. A closed loop's windows
// rank by the work answered in them: its callers send as fast as they
// are answered, so a slowed machine answers less. An open loop's
// arrivals are fixed by its schedule, so its windows rank by their
// median latency instead.
func cleanWindows(ws []window, open bool, need int) []window {
	key := make([]float64, len(ws))
	order := make([]int, len(ws))
	for i, w := range ws {
		order[i] = i
		switch {
		case !open:
			key[i] = -w.rate
		case len(w.lat) == 0:
			key[i] = math.Inf(1)
		default:
			key[i] = median(w.lat)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	least := int(math.Ceil(cleanShare * float64(len(ws))))
	var clean []window
	n := 0
	for _, i := range order {
		if len(clean) >= least && n >= need {
			break
		}
		clean = append(clean, ws[i])
		n += len(ws[i].lat)
	}
	return clean
}

// runFigures are a run's throughput and latency sample.
type runFigures struct {
	// rate is the options answered per second: for a closed loop the
	// median over the clean windows, for an open loop (whose rate its
	// schedule sets) the whole run's.
	rate float64
	// lat holds the ascending latencies (ms) of the pricing requests
	// that completed in the clean windows.
	lat []float64
	// clean is how many of the runWindows windows were clean.
	clean int
}

// figures takes a run's figures over its clean windows, enough of them
// that the latencies leave minBeyond samples beyond the p-th percentile.
func figures(recs []record, open bool, p float64) runFigures {
	ws := cutWindows(recs, runWindows)
	if len(ws) == 0 {
		return runFigures{rate: math.NaN()}
	}
	clean := cleanWindows(ws, open, samplesFor(p))
	f := runFigures{clean: len(clean)}
	var rates []float64
	for _, w := range clean {
		rates = append(rates, w.rate)
		f.lat = append(f.lat, w.lat...)
	}
	sort.Float64s(f.lat)
	if !open {
		f.rate = median(rates)
		return f
	}
	for _, w := range ws {
		f.rate += w.rate / float64(len(ws))
	}
	return f
}
