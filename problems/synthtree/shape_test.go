// Every synthetic tree the repository runs, pinned against a recorded file:
// node count, depth and an FNV-64a hash of the depth-first (depth, size)
// sequence. A change that moves any node's size — in the apportionment, the
// weights or the order they are summed in — moves a hash; the sizes are
// integers, so a few ulps in a weight usually move nothing. Regenerate with
// `go test ./problems/synthtree -run TestShapePinned -update` only when a
// change is meant to move the trees.
package synthtree

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivetc/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/shapes.golden from this run")

// shapeSpecs is Tree1/2/3 and Fig8, both mirrors, at every size a test,
// example, benchmark or experiment scale builds (registry's 1<<16 default
// included), at the spec's own seed and at the experiments' 20100424; then
// one spec for each remaining α path (the default 2, and 12 as in
// TestNoInfiniteRecursion) and a nine-fraction vector at treegen's default α
// and at the √ path's, so more than seven children is covered too.
func shapeSpecs() []Spec {
	sizes := []int64{2048, 4000, 5000, 20000, 30000, 40000, 50000, 60000, 1 << 16, 100000, 150000, 200000}
	var specs []Spec
	for _, mk := range []func(int64) Spec{Tree1, Tree2, Tree3, Fig8} {
		for _, size := range sizes {
			for _, seeded := range []bool{false, true} {
				s := mk(size)
				if seeded {
					s.Seed = 20100424
				}
				specs = append(specs, s, s.Reverse())
			}
		}
	}
	nine := []float64{30, 20, 15, 10, 8, 7, 5, 3, 2}
	return append(specs,
		Spec{Label: "alpha2", Size: 20000, RootFractions: []float64{50, 30, 20}, Seed: 20100424},
		Spec{Label: "extreme", Size: 3000, RootFractions: []float64{1, 0.0000001}, Alpha: 12},
		Spec{Label: "nine", Size: 20000, RootFractions: nine, Alpha: 2.5, Seed: 20100424},
		Spec{Label: "nine-sqrt", Size: 20000, RootFractions: nine, Alpha: 1.5, PosBias: 0.75, Seed: 20100424, Reversed: true},
	)
}

// shape walks the tree depth first and hashes every node's (depth, size).
func shape(p *Program) (nodes int64, depth int, sum uint64) {
	h := fnv.New64a()
	var buf [12]byte
	w := p.Root()
	var walk func(d int)
	walk = func(d int) {
		nodes++
		depth = max(depth, d)
		binary.LittleEndian.PutUint32(buf[:4], uint32(d))
		binary.LittleEndian.PutUint64(buf[4:], uint64(w.(*ws).top().size))
		h.Write(buf[:])
		if _, ok := p.Terminal(w, d); ok {
			return
		}
		for m := 0; m < p.Moves(w, d); m++ {
			if p.Apply(w, d, m) {
				walk(d + 1)
				p.Undo(w, d, m)
			}
		}
	}
	walk(0)
	return nodes, depth, h.Sum64()
}

func TestShapePinned(t *testing.T) {
	var sb strings.Builder
	for _, s := range shapeSpecs() {
		nodes, depth, sum := shape(New(s))
		fmt.Fprintf(&sb, "%-9s size=%-6d seed=%-8d nodes=%-6d depth=%-4d fnv=%016x\n", s.Label, s.Size, s.Seed, nodes, depth, sum)
	}
	got := sb.String()
	path := filepath.Join("testdata", "shapes.golden")
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
		t.Errorf("%s drifted: a synthetic tree changed shape\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestShapeAgreesWithAnalyze ties the walk to sched.Analyze, so the pinned
// node counts and depths are the ones every report prints.
func TestShapeAgreesWithAnalyze(t *testing.T) {
	for _, s := range []Spec{Tree3(30000), Fig8(5000).Reverse()} {
		nodes, depth, _ := shape(New(s))
		st := sched.Analyze(New(s), 0)
		if nodes != st.Nodes || depth != st.Depth {
			t.Errorf("%s: walk says %d nodes depth %d, Analyze %d depth %d", s.Label, nodes, depth, st.Nodes, st.Depth)
		}
	}
}
