package progtest

import (
	"testing"

	"adaptivetc/internal/sched"
)

// FirstPath returns the moves from p's root to the first nonzero leaf in
// depth-first order, or nil when there is none.
func FirstPath(p sched.Program) []int {
	ws := p.Root()
	var path []int
	var walk func(depth int) bool
	walk = func(depth int) bool {
		if v, term := p.Terminal(ws, depth); term {
			return v != 0
		}
		n := p.Moves(ws, depth)
		for m := 0; m < n; m++ {
			if !p.Apply(ws, depth, m) {
				continue
			}
			path = append(path, m)
			if walk(depth + 1) {
				return true
			}
			path = path[:len(path)-1]
			p.Undo(ws, depth, m)
		}
		return false
	}
	walk(0)
	return path
}

// MoveAllocs checks that an accepted Apply + Undo and a rejected Apply
// allocate nothing, on a workspace halfway down p's first solution path
// (which must exist and have a rejected candidate at that depth).
func MoveAllocs(t *testing.T, p sched.Program) {
	t.Helper()
	path := FirstPath(p)
	if len(path) == 0 {
		t.Fatalf("%s: no solution to walk towards", p.Name())
	}
	ws := p.Root()
	d := len(path) / 2
	for i, m := range path[:d] {
		p.Apply(ws, i, m)
	}
	next, rejected := path[d], -1
	for m := 0; m < p.Moves(ws, d) && rejected < 0; m++ {
		if p.Apply(ws, d, m) {
			p.Undo(ws, d, m)
		} else {
			rejected = m
		}
	}
	if rejected < 0 {
		t.Fatalf("%s: every move is legal at depth %d", p.Name(), d)
	}
	for _, c := range []struct {
		what string
		f    func()
	}{
		{"Apply+Undo", func() {
			p.Apply(ws, d, next)
			p.Undo(ws, d, next)
		}},
		{"rejected Apply", func() { p.Apply(ws, d, rejected) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != 0 {
			t.Errorf("%s: %s: %v allocs per call, want 0", p.Name(), c.what, got)
		}
	}
}
