package nqueens

import (
	"testing"

	"adaptivetc/internal/progtest"
)

// BenchmarkApply walks the whole 10-queens tree depth first with Apply and
// Undo, the way the serial move loop meets the candidates: ns/apply is per
// candidate column, accepted or rejected. A whole tree, unlike one path
// replayed, leaves the branch predictor guessing which candidates conflict.
func BenchmarkApply(b *testing.B) {
	for _, p := range []*Program{NewArray(10), NewCompute(10)} {
		b.Run(p.Name(), func(b *testing.B) {
			w := p.Root()
			applies := 0
			var walk func(depth int)
			walk = func(depth int) {
				if depth == p.N {
					return
				}
				applies += p.N
				for m := 0; m < p.N; m++ {
					if p.Apply(w, depth, m) {
						walk(depth + 1)
						p.Undo(w, depth, m)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(applies), "ns/apply")
		})
	}
}

// TestAllocBudget: Apply and Undo allocate nothing, accepted or rejected;
// a Clone is the workspace and one slab.
func TestAllocBudget(t *testing.T) {
	for _, p := range []*Program{NewArray(11), NewCompute(11)} {
		progtest.MoveAllocs(t, p)
		w := p.Root()
		if got := testing.AllocsPerRun(100, func() { w.Clone() }); got > 2 {
			t.Errorf("%s: Clone: %v allocs, want <= 2", p.Name(), got)
		}
	}
}
