package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

// TestRunCommand builds the command and runs it: a bad -prog, -engine or
// -steal-policy is a usage error (exit status 2), -list prints the
// registry, a Real steal-half run on relaxed deques counts 8-queens, and
// an expired -timeout exits 1 with its own message.
func TestRunCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "adaptivetc-run")
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

	for _, tc := range []struct {
		args []string
		code int
		want string // must appear on stderr
	}{
		// The registry's error names the program only; -list has the rest.
		{[]string{"-prog", "nqueens-arrray"}, 2, `adaptivetc-run: unknown program "nqueens-arrray"`},
		{[]string{"-engine", "cilk2"}, 2, fmt.Sprintf(`unknown engine "cilk2" (have %v)`, adaptivetc.EngineNames())},
		{[]string{"-steal-policy", "round-robin"}, 2, fmt.Sprintf(`unknown -steal-policy "round-robin" (have %v)`, wsrt.StealPolicyNames())},
		{[]string{"-prog", "nqueens-array", "-n", "16", "-timeout", "1ms"}, 1, "adaptivetc-run: run aborted: exceeded -timeout 1ms"},
	} {
		stdout, stderr, code := run(tc.args...)
		if code != tc.code {
			t.Errorf("%v: exit status %d, want %d\n%s", tc.args, code, tc.code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q", tc.args, stdout)
		}
	}

	stdout, stderr, code := run("-list")
	if got := strings.Fields(stdout); code != 0 || strings.Join(got, " ") != strings.Join(registry.Names(), " ") {
		t.Errorf("-list: exit status %d, printed %q, want %v\n%s", code, got, registry.Names(), stderr)
	}

	stdout, stderr, code = run("-prog", "nqueens-array", "-n", "8", "-engine", "adaptivetc", "-workers", "4",
		"-real", "-steal-policy", "steal-half", "-relaxed-deque")
	if code != 0 || !strings.Contains(stdout, " P=4 value=92 ") {
		t.Errorf("8-queens on 4 Real workers: exit status %d, stdout %q, want value=92\n%s", code, stdout, stderr)
	}
}
