package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Env is the configuration recorded next to every result: what ran,
// where, and with which flags, so a number is never separated from the
// machine and build that produced it.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit is the git HEAD of the measured tree, "unknown" outside a
	// git checkout; Dirty is nil when that cannot be told.
	Commit string `json:"commit"`
	Dirty  *bool  `json:"dirty"`

	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Servers holds the exact command line, binary first, of the server
	// processes the run measured.
	Servers [][]string `json:"servers,omitempty"`
	Started time.Time  `json:"started"`
}

// captureEnv records the machine and source tree under root.
func captureEnv(root string) Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
		Started:    time.Now().UTC(),
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		e.Commit = strings.TrimSpace(out)
		if st, err := gitOutput(root, "status", "--porcelain"); err == nil {
			dirty := strings.TrimSpace(st) != ""
			e.Dirty = &dirty
		}
	}
	return e
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	return string(out), err
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
