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
// The same build then runs the quick Figure 9 sweep at -parallel 1 and 8:
// the report (without its wall-clock trailer) and the CSV must be
// byte-identical.
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
	t.Run("parallel determinism", func(t *testing.T) {
		report := func(parallel string) (text, csv string) {
			path := filepath.Join(dir, "fig9-"+parallel+".csv")
			out, err := exec.Command(bin, "-exp", "fig9", "-scale", "quick", "-parallel", parallel, "-csv", path).Output()
			if err != nil {
				t.Fatalf("-parallel %s: %v", parallel, err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, l := range strings.Split(string(out), "\n") {
				if !strings.HasPrefix(l, "[done in ") {
					lines = append(lines, l)
				}
			}
			return strings.Join(lines, "\n"), string(b)
		}
		seqText, seqCSV := report("1")
		parText, parCSV := report("8")
		if strings.Count(seqCSV, "\n") < 2 {
			t.Fatalf("the sequential CSV has no data rows:\n%s", seqCSV)
		}
		if parText != seqText {
			t.Errorf("-parallel 8 report differs from -parallel 1:\n%s\n---\n%s", parText, seqText)
		}
		if parCSV != seqCSV {
			t.Errorf("-parallel 8 CSV differs from -parallel 1:\n%s\n---\n%s", parCSV, seqCSV)
		}
	})
}
