package nqueens_test

import (
	"testing"

	"adaptivetc/internal/progtest"
	"adaptivetc/problems/registry"
)

// TestTreePinned pins the tree of both n-queens variants at every size the
// repository builds: the registry default 8, the benchmark's 6, 8, 10 and
// 11, and the quick, default and full scales of internal/experiments (10, 12
// and 13 for the array variant, 10, 11 and 12 for the compute one), each
// size run on both variants. The rows were recorded before the conflict
// test became branch-free; a change to Apply or Undo that moves a row moves
// a schedule.
func TestTreePinned(t *testing.T) {
	rows := []struct {
		name string
		n    int
		want progtest.Shape
	}{
		{"nqueens-array", 6, progtest.Shape{Value: 4, Nodes: 153, Depth: 6, Hash: 0x35d855a6926dc2c1}},
		{"nqueens-array", 8, progtest.Shape{Value: 92, Nodes: 2057, Depth: 8, Hash: 0x9bf37163b6660665}},
		{"nqueens-array", 10, progtest.Shape{Value: 724, Nodes: 35539, Depth: 10, Hash: 0xcaec9dd88db73e5c}},
		{"nqueens-array", 11, progtest.Shape{Value: 2680, Nodes: 166926, Depth: 11, Hash: 0x057b5ec62c95ead2}},
		{"nqueens-array", 12, progtest.Shape{Value: 14200, Nodes: 856189, Depth: 12, Hash: 0x2446080fcb7af0cd}},
		{"nqueens-array", 13, progtest.Shape{Value: 73712, Nodes: 4674890, Depth: 13, Hash: 0x43a343a49613534d}},
		{"nqueens-compute", 6, progtest.Shape{Value: 4, Nodes: 153, Depth: 6, Hash: 0x35d855a6926dc2c1}},
		{"nqueens-compute", 8, progtest.Shape{Value: 92, Nodes: 2057, Depth: 8, Hash: 0x9bf37163b6660665}},
		{"nqueens-compute", 10, progtest.Shape{Value: 724, Nodes: 35539, Depth: 10, Hash: 0xcaec9dd88db73e5c}},
		{"nqueens-compute", 11, progtest.Shape{Value: 2680, Nodes: 166926, Depth: 11, Hash: 0x057b5ec62c95ead2}},
		{"nqueens-compute", 12, progtest.Shape{Value: 14200, Nodes: 856189, Depth: 12, Hash: 0x2446080fcb7af0cd}},
		{"nqueens-compute", 13, progtest.Shape{Value: 73712, Nodes: 4674890, Depth: 13, Hash: 0x43a343a49613534d}},
	}
	for _, r := range rows {
		p, err := registry.Build(r.name, registry.Params{N: r.n})
		if err != nil {
			t.Fatal(err)
		}
		if got := progtest.TreeShape(p); got != r.want {
			t.Errorf("{%q, %d, progtest.Shape%v},", r.name, r.n, got)
		}
	}
}
