package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"binopt/internal/cluster"
	"binopt/internal/obslog"
	"binopt/internal/serve"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

// traceBuf and fleetNodes are the shipped binaries' defaults
// (pricesrvd/pricefleet -trace-buf, and the fleet size the benchmark
// passes as pricefleet -nodes).
const (
	traceBuf   = 65536
	fleetNodes = 2
)

// nodeConfig mirrors a pricesrvd started with default flags: tracing
// and the SLO monitor on, info-level logs (discarded here), every other
// field at the serve defaults the flags also default to.
func nodeConfig() serve.Config {
	return serve.Config{
		Steps:  steps,
		Tracer: telemetry.New(traceBuf),
		SLO:    &slo.Options{},
		Logger: obslog.New(io.Discard, "serve", slog.LevelInfo),
	}
}

// newNode builds a serve.Server as pricesrvd would.
func newNode() (*serve.Server, error) {
	cfg := nodeConfig()
	backends, err := serve.DefaultBackends(steps)
	if err != nil {
		return nil, err
	}
	cfg.Backends = backends
	return serve.New(cfg)
}

// listen serves h on a fresh loopback listener and returns its base URL
// and a function that closes it and waits for the serve loop to end.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

func selfRSS() (float64, error) { return peakRSSMB(os.Getpid()) }

// inprocNode is the pricesrvd stack assembled in this process.
func inprocNode(srv *serve.Server) (*target, error) {
	base, closeHTTP, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &target{base: base, rssMB: selfRSS, stop: func() error {
		closeHTTP()
		return closeNode(srv)
	}}, nil
}

// closeNode drains an in-process server, giving it as long as the
// shipped binaries get before the benchmark kills them.
func closeNode(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return srv.Close(ctx)
}

// inprocFleet is the pricefleet stack assembled in this process: a
// 2-node LocalFleet behind a router, both configured as pricefleet's
// default flags configure them.
func inprocFleet() (*target, error) {
	sloOpts := &slo.Options{}
	fleet, err := cluster.NewLocalFleet(fleetNodes, serve.Config{
		Steps:  steps,
		Tracer: telemetry.New(traceBuf),
		SLO:    sloOpts,
		Logger: obslog.New(io.Discard, "serve", slog.LevelInfo),
	})
	if err != nil {
		return nil, err
	}
	closeFleet := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return fleet.Close(ctx)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:  fleet.Nodes(),
		Steps:  steps,
		Tracer: telemetry.New(traceBuf),
		SLO:    sloOpts,
		Logger: obslog.New(io.Discard, "router", slog.LevelInfo),
	})
	if err != nil {
		return nil, errors.Join(err, closeFleet())
	}
	base, closeHTTP, err := listen(rt.Handler())
	if err != nil {
		rt.Close()
		return nil, errors.Join(err, closeFleet())
	}
	return &target{base: base, rssMB: selfRSS, stop: func() error {
		closeHTTP()
		rt.Close()
		return closeFleet()
	}}, nil
}

// inprocLauncher starts the in-process stack a workload runs against.
// Its set-up time is measured the same way as a process's: from the
// start of construction to the first ready /healthz.
func inprocLauncher(ctx context.Context, w *workloadDef) (*target, time.Duration, []string, error) {
	start := time.Now()
	var (
		t     *target
		err   error
		ready readyFunc = nodeReady
	)
	if w.fleet {
		t, err = inprocFleet()
		ready = fleetReady(fleetNodes)
	} else {
		var srv *serve.Server
		if srv, err = newNode(); err == nil {
			t, err = inprocNode(srv)
		}
	}
	if err != nil {
		return nil, 0, nil, err
	}
	if err := waitReady(ctx, t.base, ready, nil); err != nil {
		return nil, 0, nil, errors.Join(err, t.stop())
	}
	return t, time.Since(start), []string{"in-process"}, nil
}
