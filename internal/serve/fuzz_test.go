package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"binopt/internal/scenario"
)

// FuzzParsePriceRequest feeds arbitrary bodies to the /v1/price parser
// the node and the router share. It must never panic, an accepted
// request is never empty, and every contract ToOption accepts is a
// valid option that survives the router's re-marshal to a node with its
// cache and placement key intact.
func FuzzParsePriceRequest(f *testing.F) {
	for _, seed := range []string{
		`{"contracts":[{"right":"put","style":"american","spot":100,"strike":105,"rate":0.03,"sigma":0.2,"t":0.5}]}`,
		`{"right":"CALL","style":"European","spot":1e-300,"strike":1e300,"rate":-0.5,"div":0.01,"sigma":5,"t":30}`,
		`{"contracts":[{"right":"put","style":"bermudan","spot":1,"strike":1,"sigma":1,"t":1},{"right":"call"}]}`,
		`{"contracts":[]}`,
		`{"contracts":null,"right":"put"}`,
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParsePriceRequest(body)
		if err != nil {
			return
		}
		if len(req.Contracts) == 0 {
			t.Fatal("accepted a request with no contracts")
		}
		for i, c := range req.Contracts {
			o, err := c.ToOption()
			if err != nil {
				continue
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("contract %d: ToOption accepted an invalid option: %v", i, err)
			}
			wire, err := json.Marshal(PriceRequest{Contracts: []Contract{c}})
			if err != nil {
				t.Fatalf("contract %d: re-marshal: %v", i, err)
			}
			again, err := ParsePriceRequest(wire)
			if err != nil {
				t.Fatalf("contract %d: re-parse of %s: %v", i, wire, err)
			}
			o2, err := again.Contracts[0].ToOption()
			if err != nil || KeyFor(o2, 64) != KeyFor(o, 64) {
				t.Fatalf("contract %d: key changed across the wire: %v", i, err)
			}
		}
	})
}

// FuzzParseScenarioRequest feeds arbitrary bodies to the /v1/scenarios
// parser and resolver the node and the router share. Neither may panic
// or allocate without bound; a resolved request holds at most
// scenario.MaxGridScenarios valid shocks, quantiles strictly inside
// (0,1), and positions whose contracts all pass ToOption.
func FuzzParseScenarioRequest(f *testing.F) {
	for _, seed := range []string{
		`{"portfolio":[{"contract":{"right":"put","style":"american","spot":100,"strike":105,"rate":0.03,"sigma":0.2,"t":0.5},"quantity":10}],"grid":{"spot":{"from":0.8,"to":1.2,"n":9},"vol":{"from":0.9,"to":1.3,"n":5}},"quantiles":[0.95,0.99]}`,
		`{"portfolio":[{"contract":{"right":"call","style":"european","spot":50,"strike":40,"sigma":0.3,"t":1},"quantity":-3}],"shocks":[{"label":"crash","spot_mul":0.7,"vol_mul":1.5},{"rate_add":0.01}],"skip_greeks":true}`,
		`{"portfolio":[],"grid":{"rate":{"from":-0.01,"to":0.01,"n":3}}}`,
		`{"portfolio":[{"contract":{"right":"put"},"quantity":1}],"shocks":[{}]}`,
		`{"shocks":[{"spot_mul":0}],"grid":{}}`,
		`{"grid":{"spot":{"from":1,"to":2,"n":1024},"vol":{"from":1,"to":2,"n":1025}}}`,
		`{"grid":{"spot":{"from":1,"to":2,"n":-1}},"quantiles":[0,1]}`,
		`{"shocks":[{}],"quantiles":[0.5,NaN]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseScenarioRequest(body)
		if err != nil {
			return
		}
		book, shocks, quantiles, err := req.Resolve()
		if err != nil {
			return
		}
		if len(shocks) > scenario.MaxGridScenarios {
			t.Fatalf("%d shocks resolved, cap is %d", len(shocks), scenario.MaxGridScenarios)
		}
		for i, sh := range shocks {
			if err := sh.Validate(); err != nil {
				t.Fatalf("shock %d resolved invalid: %v", i, err)
			}
		}
		for _, q := range quantiles {
			if !(q > 0 && q < 1) {
				t.Fatalf("quantile %v resolved outside (0,1)", q)
			}
		}
		if len(book) != len(req.Portfolio) {
			t.Fatalf("%d positions resolved from %d", len(book), len(req.Portfolio))
		}
		for i, p := range req.Portfolio {
			o, err := p.Contract.ToOption()
			if err != nil {
				t.Fatalf("position %d resolved but fails ToOption: %v", i, err)
			}
			if o != book[i].Option {
				t.Fatalf("position %d resolved to %+v, ToOption gives %+v", i, book[i].Option, o)
			}
		}
	})
}

// FuzzParseVolCurveRequest feeds arbitrary bodies to the /v1/volcurve
// parser and resolver. Neither may panic, and an accepted request
// resolves to 1..limit quotes, each a valid contract with a positive
// price: the bound holds before the generated form prices its chain.
func FuzzParseVolCurveRequest(f *testing.F) {
	const limit, steps = 64, 16
	for _, seed := range []string{
		`{"n":16,"seed":7}`,
		`{"n":64,"seed":-1}`,
		`{"n":65}`,
		`{"n":1000000000}`,
		`{"n":0}`,
		`{"n":-3,"quotes":[]}`,
		`{"quotes":[{"contract":{"right":"put","style":"american","spot":100,"strike":105,"rate":0.03,"sigma":0.2,"t":0.5},"price":7.5}]}`,
		`{"quotes":[{"contract":{"right":"call","style":"european","spot":100,"strike":90,"sigma":0.3,"t":1},"price":0}],"n":4}`,
		`{"quotes":[{"contract":{"right":"put"},"price":1}]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseVolCurveRequest(body, limit)
		if err != nil {
			return
		}
		quotes, err := req.Resolve(steps)
		if err != nil {
			return
		}
		if len(quotes) < 1 || len(quotes) > limit {
			t.Fatalf("accepted request resolved to %d quotes, want 1..%d", len(quotes), limit)
		}
		for i, q := range quotes {
			if err := q.Option.Validate(); err != nil {
				t.Fatalf("quote %d resolved to an invalid contract: %v", i, err)
			}
			if !(q.Price > 0) {
				t.Fatalf("quote %d resolved to price %v", i, q.Price)
			}
		}
	})
}

// FuzzParseServerTiming feeds arbitrary headers to the one Server-Timing
// parser the router and loadgen share. It must never panic, and a header
// it accepts must render to a fixed point: formatting the breakdown,
// parsing that back and formatting again yields the same header.
func FuzzParseServerTiming(f *testing.F) {
	for _, c := range serverTimingCases {
		f.Add(c.header)
	}
	f.Fuzz(func(t *testing.T, header string) {
		bd, err := ParseServerTiming(header)
		if err != nil {
			return
		}
		formatted := bd.ServerTiming()
		again, err := ParseServerTiming(formatted)
		if err != nil {
			t.Fatalf("ParseServerTiming(%q) rejected its own rendering %q: %v", header, formatted, err)
		}
		if got := again.ServerTiming(); got != formatted {
			t.Fatalf("ParseServerTiming(%q): rendering is not a fixed point:\n%s\n%s", header, formatted, got)
		}
	})
}

// FuzzReadInvalidate feeds arbitrary bodies to the one /v1/invalidate
// parser the node, the gossiping node and the router share. It must
// never panic; a body over MaxInvalidateBytes answers 413 and any other
// rejection 400; an accepted request re-marshals and re-reads to itself.
// oversize pads the body with whitespace past the bound, which the
// fuzzer's own mutations seldom reach.
func FuzzReadInvalidate(f *testing.F) {
	for _, seed := range []string{
		`{"generation":7,"origin":"node-1"}`,
		`{"generation":18446744073709551615}`,
		`{"generation":-1}`,
		`{"generation":1.5,"origin":"x"}`,
		`{"origin":"\ud800"}`,
		`  `,
		``,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed), false)
	}
	f.Add([]byte(`{"generation":3}`), true)
	read := func(body []byte) (InvalidateRequest, int, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/invalidate", bytes.NewReader(body))
		return ReadInvalidate(httptest.NewRecorder(), r)
	}
	f.Fuzz(func(t *testing.T, body []byte, oversize bool) {
		if oversize {
			body = append(body, bytes.Repeat([]byte(" "), MaxInvalidateBytes+1)...)
		}
		req, status, err := read(body)
		switch {
		case len(body) > MaxInvalidateBytes:
			if err == nil || status != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: status %d, err %v, want 413", len(body), status, err)
			}
			return
		case err != nil:
			if status != http.StatusBadRequest {
				t.Fatalf("rejected with status %d, want 400: %v", status, err)
			}
			return
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal %+v: %v", req, err)
		}
		again, status, err := read(wire)
		if err != nil || again != req {
			t.Fatalf("%s re-read as %+v (status %d, %v), want %+v", wire, again, status, err, req)
		}
	})
}
