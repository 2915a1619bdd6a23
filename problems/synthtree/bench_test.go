package synthtree

import (
	"testing"

	"adaptivetc/internal/sched"
)

// deepestPath returns the moves from the root to one of the deepest nodes.
func deepestPath(p *Program) []int {
	w := p.Root()
	var path, best []int
	var walk func(d int)
	walk = func(d int) {
		if len(path) > len(best) {
			best = append(best[:0], path...)
		}
		if _, ok := p.Terminal(w, d); ok {
			return
		}
		for m := 0; m < p.Moves(w, d); m++ {
			if p.Apply(w, d, m) {
				path = append(path, m)
				walk(d + 1)
				path = path[:len(path)-1]
				p.Undo(w, d, m)
			}
		}
	}
	walk(0)
	return best
}

// descend plays path from w's current node, which is at depth 0.
func descend(tb testing.TB, p *Program, w sched.Workspace, path []int) {
	for d, m := range path {
		if !p.Apply(w, d, m) {
			tb.Fatalf("move %d refused at depth %d", m, d)
		}
	}
}

func undo(p *Program, w sched.Workspace, path []int) {
	for d := len(path) - 1; d >= 0; d-- {
		p.Undo(w, d, path[d])
	}
}

// BenchmarkExpand is one descent of tree3 30000's deepest path and back:
// every node below the root is pushed fresh, so each Apply but the first
// splits a node's size among its children. ns/node is per Apply + Undo.
func BenchmarkExpand(b *testing.B) {
	p := New(Tree3(30000))
	path := deepestPath(p)
	w := p.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		descend(b, p, w, path)
		undo(p, w, path)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(path)), "ns/node")
}

// BenchmarkCopyFrom recycles a workspace from one at tree3 30000's deepest
// node (depth 24), every level on the way expanded.
func BenchmarkCopyFrom(b *testing.B) {
	p := New(Tree3(30000))
	src := p.Root()
	descend(b, p, src, deepestPath(p))
	dst := p.Root().(sched.Reusable)
	dst.CopyFrom(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.CopyFrom(src)
	}
}
