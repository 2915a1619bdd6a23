package sudoku_test

import (
	"testing"

	"adaptivetc/internal/progtest"
	"adaptivetc/problems/registry"
)

// TestTreePinned pins the tree of every Sudoku instance the repository
// builds: each registry family at its default size and at every size that
// benchmark/ (balanced 42 and 44) and internal/experiments (the quick,
// default and full scales of Figure 4 and of §5.3's three inputs) ask for,
// plus input1 48 and 50 that the engine tests run. The rows were recorded
// before Apply and Undo read the cell geometry from a table; a change to
// either that moves a row moves a schedule.
func TestTreePinned(t *testing.T) {
	rows := []struct {
		name string
		n    int
		want progtest.Shape
	}{
		{"sudoku-empty4", 0, progtest.Shape{Value: 288, Nodes: 2753, Depth: 16, Hash: 0x0d244810a7dea2a5}},
		{"sudoku-balanced", 0, progtest.Shape{Value: 8, Nodes: 7299, Depth: 40, Hash: 0x20d0b7e4c1bc04f7}},
		{"sudoku-balanced", 42, progtest.Shape{Value: 28, Nodes: 40241, Depth: 42, Hash: 0x5a0940628c01a196}},
		{"sudoku-balanced", 44, progtest.Shape{Value: 56, Nodes: 180319, Depth: 44, Hash: 0x00ad92a3e352dbeb}},
		{"sudoku-balanced", 46, progtest.Shape{Value: 62, Nodes: 274465, Depth: 46, Hash: 0xbe20b8a4e1d44c70}},
		{"sudoku-balanced", 48, progtest.Shape{Value: 290, Nodes: 3293027, Depth: 48, Hash: 0xc67c911f5cf2196f}},
		{"sudoku-input1", 0, progtest.Shape{Value: 4, Nodes: 261, Depth: 40, Hash: 0x851b80de5342a9e3}},
		{"sudoku-input1", 48, progtest.Shape{Value: 18, Nodes: 8331, Depth: 48, Hash: 0x5512979b301bf5aa}},
		{"sudoku-input1", 50, progtest.Shape{Value: 31, Nodes: 17061, Depth: 50, Hash: 0x661f1949ad5541f2}},
		{"sudoku-input1", 52, progtest.Shape{Value: 110, Nodes: 27527, Depth: 52, Hash: 0x38e73a7400366c8d}},
		{"sudoku-input1", 54, progtest.Shape{Value: 285, Nodes: 175411, Depth: 54, Hash: 0x4066dd220ac591e2}},
		{"sudoku-input1", 57, progtest.Shape{Value: 3115, Nodes: 1386700, Depth: 57, Hash: 0x5ba08bc27d864a07}},
		{"sudoku-input2", 0, progtest.Shape{Value: 28, Nodes: 2613, Depth: 40, Hash: 0x6d86a3bef1057717}},
		{"sudoku-input2", 50, progtest.Shape{Value: 139, Nodes: 39657, Depth: 50, Hash: 0xa4be52e5360f4076}},
		{"sudoku-input2", 52, progtest.Shape{Value: 242, Nodes: 72340, Depth: 52, Hash: 0xbd3f5dbcf720cbda}},
		{"sudoku-input2", 54, progtest.Shape{Value: 787, Nodes: 619764, Depth: 54, Hash: 0x1f66f8f31833a327}},
		{"sudoku-input2", 55, progtest.Shape{Value: 2365, Nodes: 1709193, Depth: 55, Hash: 0xe6ec94d8bb38982e}},
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
