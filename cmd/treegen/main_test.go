package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTreegen builds the command and runs it: a nine-fraction custom tree
// has exactly -size leaves, and a spec synthtree refuses or an unknown
// -tree is a usage error — exit status 2, one line on stderr, no panic.
func TestTreegen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "treegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var out, errOut strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String(), errOut.String(), code
	}

	stdout, stderr, code := run("-fractions", "30,20,15,10,8,7,5,3,2", "-size", "20000")
	if code != 0 {
		t.Fatalf("nine fractions: exit status %d\n%s", code, stderr)
	}
	if m := regexp.MustCompile(`leaves=(\d+) `).FindStringSubmatch(stdout); m == nil || m[1] != "20000" {
		t.Errorf("nine fractions: want leaves=20000, got %q", stdout)
	}
	if shares := strings.Count(stdout, "%"); shares != 9 {
		t.Errorf("nine fractions: %d depth-1 shares, want 9: %q", shares, stdout)
	}

	for _, tc := range []struct {
		args []string
		want string // must appear on stderr
	}{
		{[]string{"-fractions", "1,-1"}, "treegen: synthtree: fraction -1 is not a finite non-negative number"},
		{[]string{"-size", "0"}, "treegen: synthtree: size 0 < 1"},
		{[]string{"-tree", "tree3", "-size", "0"}, "treegen: synthtree: size 0 < 1"},
		{[]string{"-tree", "tree9"}, `treegen: unknown tree "tree9"`},
	} {
		stdout, stderr, code := run(tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, code)
		}
		if strings.Contains(stderr, "goroutine") || strings.Contains(stderr, "panic") {
			t.Errorf("%v: panicked:\n%s", tc.args, stderr)
		}
		if strings.TrimSpace(stderr) != tc.want {
			t.Errorf("%v: stderr %q, want the one line %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q before refusing", tc.args, stdout)
		}
	}
}
