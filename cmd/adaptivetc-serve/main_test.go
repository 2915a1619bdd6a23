package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsExit2 builds the command and runs it with each flag value the
// start-up checks must refuse: exit status 2 and a message naming what would
// have been accepted, before anything listens or opens a store. The
// -shard-policy flag is gone: shards are a fixed partition.
func TestBadFlagsExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "adaptivetc-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // must appear on stderr
	}{
		{[]string{"-shard-policy", "adaptive"}, "flag provided but not defined: -shard-policy"},
		{[]string{"-steal-policy", "round-robin"}, `unknown -steal-policy "round-robin" (have [random steal-half richest-first shard-local])`},
		{[]string{"-replay"}, "-replay requires -store-dir"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2\n%s", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestAdvertisedURL pins the -node-id default: it used to be
// "http://127.0.0.1" + addr, so -addr 127.0.0.1:8331 advertised
// http://127.0.0.1127.0.0.1:8331.
func TestAdvertisedURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{":8331", "http://127.0.0.1:8331"},
		{"127.0.0.1:8331", "http://127.0.0.1:8331"},
		{"localhost:8331", "http://localhost:8331"},
		{"[::1]:8331", "http://[::1]:8331"},
	} {
		got, err := advertisedURL(tc.addr)
		if err != nil || got != tc.want {
			t.Errorf("advertisedURL(%q) = %q, %v; want %q", tc.addr, got, err, tc.want)
		}
	}
	if got, err := advertisedURL("8331"); err == nil {
		t.Errorf("advertisedURL(%q) = %q, want an error (no port)", "8331", got)
	}
}
