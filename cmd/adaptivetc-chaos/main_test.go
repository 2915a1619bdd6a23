package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplay builds the command and replays tuples: a Sim tuple runs twice
// and must come back byte-identical with exit status 0, and a malformed
// tuple is refused with exit status 2 and a message saying why.
func TestReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "adaptivetc-chaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		tuple string
		code  int
		want  string // must appear on stdout or stderr
	}{
		{"sim/w4/adaptivetc/nqueens-array=6/steal-burst/7", 0, "replayed byte-identically"},
		{"sim/w4/adaptivetc/nqueens-array=6/7", 2, "replay tuple needs 6 '/'-separated fields"},
		{"sim/w4/adaptivetc/nqueens-array=6/earthquake/7", 2, `unknown scenario "earthquake"`},
	} {
		out, err := exec.Command(bin, "-replay", tc.tuple).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.tuple, err)
		}
		if code != tc.code {
			t.Errorf("%s: exit status %d, want %d\n%s", tc.tuple, code, tc.code, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output %q does not contain %q", tc.tuple, out, tc.want)
		}
	}
}
