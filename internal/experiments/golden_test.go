// The paper reproduction pinned against recorded reports: the Sim is
// deterministic, so a quick-scale Figure 5 and Table 2 are byte-for-byte
// functions of the engines, the cost model and the seed. The files under
// testdata/ were recorded at the commit before the Real-platform idle path
// changed, which makes "Sim output is unchanged" a test rather than a
// promise; Figure 9's — the only figure that runs the cut-off engines — was
// recorded at the commit before the engines moved onto wsrt.Fast.
// Regenerate with
// `go test ./internal/experiments -run 'TestFigure5Runs|TestTable2Runs|TestFigure9CutoffStarves' -update`
// only when a change is meant to move virtual-time results.
package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted: virtual-time results moved\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
