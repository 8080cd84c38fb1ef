package cluster

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"binopt/internal/option"
	"binopt/internal/serve"
)

// nodeMetricsPage renders a real node's /metrics page after it has
// priced, served from cache and invalidated, so every field the scrape
// extracts is nonzero.
func nodeMetricsPage(tb testing.TB) []byte {
	tb.Helper()
	s, err := serve.New(serve.Config{Steps: 16})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close(context.Background())
	opts := []option.Option{
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5},
		{Right: option.Call, Style: option.European, Spot: 100, Strike: 95, Rate: 0.03, Sigma: 0.25, T: 1},
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.PriceOptionsTimed(context.Background(), opts); err != nil {
			tb.Fatal(err)
		}
	}
	s.Invalidate(3)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.Bytes()
}

// renderScrape writes the six fields a scrape extracts as a node
// /metrics page, in Go's shortest round-trip float form.
func renderScrape(ns nodeScrape) string {
	var b strings.Builder
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"binopt_options_priced_total", ns.optionsPriced},
		{"binopt_options_served_total", ns.optionsServed},
		{"binopt_options_per_sec_window", ns.windowRate},
		{"binopt_modelled_joules_total", ns.joules},
		{"binopt_cache_generation", ns.cacheGen},
		{"binopt_cache_hits_total", ns.cacheHits},
	} {
		b.WriteString(m.name + " " + strconv.FormatFloat(m.v, 'g', -1, 64) + "\n")
	}
	return b.String()
}

// sameScrape compares two scrapes field by field on the bits, so NaN
// and -0 compare like any other value.
func sameScrape(a, b nodeScrape) bool {
	for _, p := range [][2]float64{
		{a.optionsPriced, b.optionsPriced}, {a.optionsServed, b.optionsServed},
		{a.windowRate, b.windowRate}, {a.joules, b.joules},
		{a.cacheGen, b.cacheGen}, {a.cacheHits, b.cacheHits},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return a.ok == b.ok && a.name == b.name
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// endlessMetrics is a node that never stops sending its page.
type endlessMetrics struct{}

func (endlessMetrics) Read(p []byte) (int, error) {
	const line = "binopt_cache_hits_total 1\n"
	for i := range p {
		p[i] = line[i%len(line)]
	}
	return len(p), nil
}

// TestParseScrapeNodePage: a real node's /metrics page yields the
// figures the node reports, and the scrape round-trips through a page
// rendering its six fields.
func TestParseScrapeNodePage(t *testing.T) {
	got := parseScrape(bytes.NewReader(nodeMetricsPage(t)))
	if !got.ok || got.optionsPriced != 2 || got.optionsServed != 4 || got.cacheHits != 2 || got.cacheGen != 3 || !(got.joules > 0) {
		t.Fatalf("scraped %+v, want 2 priced, 4 served, 2 hits, generation 3 and nonzero joules", got)
	}
	if again := parseScrape(strings.NewReader(renderScrape(got))); !sameScrape(again, got) {
		t.Fatalf("round trip: %+v, want %+v", again, got)
	}
}

// FuzzParseScrape feeds arbitrary pages to the scrape parser the fleet
// roll-up runs over every member's /metrics. It must never panic, never
// read past maxScrapeBytes even when the node never stops sending
// (endless), and the six fields it extracts from a page that scans
// cleanly must round-trip through a rendered node page.
func FuzzParseScrape(f *testing.F) {
	f.Add(nodeMetricsPage(f), false)
	for _, seed := range []string{
		"binopt_options_priced_total 12\nbinopt_modelled_joules_total 1.5e-3\n",
		"# HELP x\n\nbinopt_cache_generation NaN\nbinopt_cache_hits_total -Inf\n",
		"binopt_options_per_sec_window  7 \nbinopt_options_served_total\n",
		"binopt_backend_modelled_joules_total{backend=\"fpga-ivb\"} 3\n",
	} {
		f.Add([]byte(seed), false)
	}
	f.Add([]byte("binopt_options_priced_total 1\n"), true)
	f.Fuzz(func(t *testing.T, page []byte, endless bool) {
		var r io.Reader = bytes.NewReader(page)
		if endless {
			r = io.MultiReader(r, endlessMetrics{})
		}
		cr := &countingReader{r: r}
		got := parseScrape(cr)
		if cr.n > maxScrapeBytes {
			t.Fatalf("read %d bytes, bound is %d", cr.n, maxScrapeBytes)
		}
		if !got.ok {
			return
		}
		if again := parseScrape(strings.NewReader(renderScrape(got))); !sameScrape(again, got) {
			t.Fatalf("round trip: %+v, want %+v", again, got)
		}
	})
}
