package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the block every output carries, so a number is never read
// without the machine it was taken on.
type hostInfo struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Load1      float64 `json:"load1_at_start"`
	Noisy      bool    `json:"noisy"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Load1:      loadAverage(),
	}
	// Another process using more than half the CPUs moves every wall-clock
	// number here; the run goes on, but says so.
	h.Noisy = h.Load1 > float64(h.CPUs)/2
	if h.Noisy {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: 1-minute load average %.2f exceeds cpus/2 = %.1f; timings will be noisy\n",
			h.Load1, float64(h.CPUs)/2)
	}
	return h
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// gitCommit asks git for HEAD without letting it search above the
// repository root; a checkout that is not a repository reads "unknown".
func gitCommit() string {
	root, err := filepath.Abs(repoRoot())
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repoRoot is the directory holding BENCHMARK.json: the parent when run
// from benchmark/ (as `go run -C benchmark .` and `go test` do), else the
// working directory.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}
