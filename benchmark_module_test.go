package adaptivetc_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkModule vets and tests the benchmark module from tier-1.
// benchmark/ is a module of its own that imports this one's internal
// packages, so `go build ./... && go test ./...` at the root never compiles
// it: without this test a signature change under internal/ breaks the
// repo's benchmark and only CI notices.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a second module")
	}
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "./..."},
		{"test", "-C", "benchmark", "-short", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
