package sudoku

import (
	"testing"

	"adaptivetc/internal/progtest"
)

// BenchmarkApply tries all nine digits at every depth of balanced(44)'s
// first solution path, undoing each one accepted, then plays the path's own
// digit to go one level down; ns/apply is per candidate digit, accepted or
// rejected, the way a move loop meets them.
func BenchmarkApply(b *testing.B) {
	p := Balanced(3, 44)
	path := progtest.FirstPath(p)
	w := p.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d, next := range path {
			for m := 0; m < p.n; m++ {
				if p.Apply(w, d, m) {
					p.Undo(w, d, m)
				}
			}
			p.Apply(w, d, next)
		}
		for d := len(path) - 1; d >= 0; d-- {
			p.Undo(w, d, path[d])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(path)*p.n), "ns/apply")
}

// TestAllocBudget: Apply and Undo allocate nothing, accepted or rejected.
func TestAllocBudget(t *testing.T) {
	progtest.MoveAllocs(t, Balanced(3, 44))
	progtest.MoveAllocs(t, Input1(3, 50))
}
