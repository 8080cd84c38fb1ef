package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// target is a running pricing service the load generator talks to over
// HTTP: a server process started from a shipped binary, or the same
// stack assembled in this process (the ladder's top rung and the tests).
type target struct {
	base string
	// rssMB reports the peak resident set (VmHWM) of the process that
	// serves the target, in MiB.
	rssMB func() (float64, error)
	stop  func() error
}

// buildBinaries compiles the shipped server binaries from the source
// tree at root into dir and returns their paths by name, as given (so a
// relative dir keeps machine paths out of the recorded command lines).
func buildBinaries(ctx context.Context, root, dir string) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/pricesrvd", "./cmd/pricefleet")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building server binaries: %v\n%s", err, out)
	}
	return map[string]string{
		"pricesrvd":  filepath.Join(dir, "pricesrvd"),
		"pricefleet": filepath.Join(dir, "pricefleet"),
	}, nil
}

// freeAddr returns a loopback address with a port the kernel just
// handed out. The port is released before the server binds it, which
// is racy in principle; a collision shows up as a failed start.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// tailBuffer keeps the last bytes a process wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// drainTimeout bounds a server's graceful stop.
const drainTimeout = 10 * time.Second

// readyFunc reports whether a /healthz answer means the service is up.
type readyFunc func(status int, body []byte) bool

// nodeReady is pricesrvd's readiness: the first 200 on /healthz.
func nodeReady(status int, _ []byte) bool { return status == http.StatusOK }

// fleetReady is pricefleet's readiness: the router answers and every
// member passed its heartbeat.
func fleetReady(nodes int) readyFunc {
	return func(status int, body []byte) bool {
		if status != http.StatusOK {
			return false
		}
		var h struct {
			NodesUp int `json:"nodes_up"`
		}
		return json.Unmarshal(body, &h) == nil && h.NodesUp >= nodes
	}
}

// startProcess execs bin with args plus -addr on a free loopback port
// and waits until ready accepts its /healthz. It returns the target and
// the set-up time: from exec to readiness.
func startProcess(ctx context.Context, bin string, args []string, ready readyFunc) (*target, time.Duration, []string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, nil, err
	}
	argv := append(append([]string(nil), args...), "-addr", addr)
	logs := new(tailBuffer)
	cmd := exec.Command(bin, argv...)
	cmd.Stdout = logs
	cmd.Stderr = logs
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err := <-exited:
				var ee *exec.ExitError
				if err != nil && !errors.As(err, &ee) {
					stopErr = err
				}
			case <-time.After(drainTimeout):
				cmd.Process.Kill()
				<-exited
				stopErr = fmt.Errorf("%s did not drain within %v; killed", filepath.Base(bin), drainTimeout)
			}
		})
		return stopErr
	}
	t := &target{
		base:  "http://" + addr,
		rssMB: func() (float64, error) { return peakRSSMB(cmd.Process.Pid) },
		stop:  stop,
	}
	if err := waitReady(ctx, t.base, ready, exited); err != nil {
		stop()
		return nil, 0, nil, fmt.Errorf("%s: %w\n%s", filepath.Base(bin), err, logs)
	}
	return t, time.Since(start), append([]string{bin}, argv...), nil
}

// waitReady polls base/healthz every 2ms until ready accepts it. A
// value on exited (nil for in-process targets) means the server died
// first; the value is put back for the stop function to observe.
func waitReady(ctx context.Context, base string, ready readyFunc, exited chan error) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, body, err := get(ctx, client, base+"/healthz"); err == nil && ready(status, body) {
			return nil
		}
		select {
		case err := <-exited:
			exited <- err
			return fmt.Errorf("exited before becoming ready: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("not ready after 30s")
		}
	}
}

// get fetches url and returns its status and body.
func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// peakRSSMB reads VmHWM, the peak resident set, of pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in process status")
}
