package strimko_test

import (
	"testing"

	"adaptivetc/internal/progtest"
	"adaptivetc/problems/registry"
	"adaptivetc/problems/strimko"
)

// TestTreePinned pins the tree of every Strimko instance the repository
// builds: the registry's 7×7 diagonal instance at its default givens (7,
// also Figure 4's default scale) and at the givens of its quick and full
// scales (10 and 5), plus the Latin-square and small diagonal instances the
// tests run. The rows were recorded before Apply and Undo read the cell
// geometry from a table; a change to either that moves a row moves a
// schedule.
func TestTreePinned(t *testing.T) {
	rows := []struct {
		label string
		n     int
		want  progtest.Shape
	}{
		{"strimko", 0, progtest.Shape{Value: 635, Nodes: 2055813, Depth: 42, Hash: 0x69201d3f99c44a2a}},
		{"strimko", 5, progtest.Shape{Value: 1270, Nodes: 4111629, Depth: 44, Hash: 0x54ec9cbeac8105d6}},
		{"strimko", 10, progtest.Shape{Value: 30, Nodes: 32580, Depth: 39, Hash: 0x4b6e166601e1b362}},
		{"latin", 4, progtest.Shape{Value: 576, Nodes: 5681, Depth: 16, Hash: 0xc6ff5e9bfec25365}},
		{"diagonal5", 0, progtest.Shape{Value: 360, Nodes: 27926, Depth: 25, Hash: 0xb68fad89e79afac1}},
	}
	for _, r := range rows {
		var p *strimko.Program
		switch r.label {
		case "strimko":
			built, err := registry.Build(r.label, registry.Params{N: r.n})
			if err != nil {
				t.Fatal(err)
			}
			p = built.(*strimko.Program)
		case "latin":
			p = strimko.LatinSquares(r.n)
		case "diagonal5":
			p = strimko.Diagonal(5, r.n)
		}
		if got := progtest.TreeShape(p); got != r.want {
			t.Errorf("{%q, %d, progtest.Shape%v},", r.label, r.n, got)
		}
	}
}
