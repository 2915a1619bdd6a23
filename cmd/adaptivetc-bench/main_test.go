package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceExitCodes builds the command and runs -trace twice: a clean run
// exits 0 and writes Chrome trace JSON, and a run whose trace is corrupted
// before the invariant check (-trace-inject-violation) exits 1 and says why.
func TestTraceExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "adaptivetc-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // must appear on stdout or stderr
	}{
		{"clean", nil, 0, "invariants ok"},
		{"injected violation", []string{"-trace-inject-violation"}, 1, "invariant check"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
			args := append([]string{"-trace", path, "-threads", "4"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Errorf("exit status %d, want %d\n%s", code, tc.code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output %q does not contain %q", out, tc.want)
			}
			if tc.code != 0 {
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(b) {
				t.Errorf("%s is not valid JSON", path)
			}
		})
	}
}
