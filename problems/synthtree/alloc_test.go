package synthtree

import (
	"testing"

	"adaptivetc/internal/sched"
)

// TestAllocBudget pins the generator's allocation budget on a warm
// workspace: nothing per Terminal, Moves, Apply + Undo — the Apply that
// first splits a freshly pushed node included — or CopyFrom, and at most the
// struct and its three slices per Clone. Tree3 takes the √ path, Fig8 the
// math.Pow one, and the nine-fraction vector a slab wider than seven.
func TestAllocBudget(t *testing.T) {
	for _, spec := range []Spec{
		Tree3(30000),
		Fig8(5000).Reverse(),
		{Label: "nine", Size: 20000, RootFractions: []float64{30, 20, 15, 10, 8, 7, 5, 3, 2}, Alpha: 2.5},
	} {
		t.Run(spec.Label, func(t *testing.T) {
			p := New(spec)
			path := deepestPath(p)
			ws, dst := p.Root(), p.Root().(sched.Reusable)
			descend(t, p, ws, path) // grows the stack, the slab and the scratch
			undo(p, ws, path)
			d := len(path) / 2
			descend(t, p, ws, path[:d])
			m, next := path[d], path[d+1]
			check := func(what string, budget float64, f func()) {
				t.Helper()
				if got := testing.AllocsPerRun(200, f); got > budget {
					t.Errorf("%s: %v allocs per call, budget %v", what, got, budget)
				}
			}
			check("Terminal", 0, func() { p.Terminal(ws, d) })
			check("Moves", 0, func() { p.Moves(ws, d) })
			check("Apply+Undo", 0, func() {
				p.Apply(ws, d, m)
				p.Undo(ws, d, m)
			})
			check("Apply+Undo splitting a fresh node", 0, func() {
				p.Apply(ws, d, m)
				p.Apply(ws, d+1, next)
				p.Undo(ws, d+1, next)
				p.Undo(ws, d, m)
			})
			check("CopyFrom", 0, func() { dst.CopyFrom(ws) })
			check("Clone", 4, func() { ws.Clone() })
		})
	}
}
