// Package comp is the paper's Comp(n) benchmark: compare array elements
// a[i] and b[j] for all 0 <= i, j < n, counting equal pairs. It is phrased
// as a divide-and-conquer over the n×n index rectangle — split the longer
// side until a block is small enough, then compare the block directly. Like
// fib it has no taskprivate data; the parallelism stresses task creation
// against a leaf with real work.
package comp

import (
	"fmt"

	"adaptivetc/internal/sched"
)

// Program counts equal pairs between two deterministic pseudo-random
// arrays of length N.
type Program struct {
	N    int
	Leaf int // block side at or below which a rectangle is compared directly

	a, b []int32
}

// New returns Comp(n) with the default leaf block side of 64.
func New(n int) *Program { return NewLeaf(n, 64) }

// NewLeaf returns Comp(n) with an explicit leaf block side.
func NewLeaf(n, leaf int) *Program {
	if n <= 0 || leaf <= 0 {
		panic(fmt.Sprintf("comp: invalid n=%d leaf=%d", n, leaf))
	}
	p := &Program{N: n, Leaf: leaf, a: make([]int32, n), b: make([]int32, n)}
	// Small value range so matches actually occur.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() int32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int32(x % 1024)
	}
	for i := range p.a {
		p.a[i] = next()
	}
	for i := range p.b {
		p.b[i] = next()
	}
	return p
}

// Name implements sched.Program.
func (p *Program) Name() string { return fmt.Sprintf("comp(%d)", p.N) }

// Expected computes the answer directly, for tests.
func (p *Program) Expected() int64 {
	var hist [1024]int64
	for _, v := range p.a {
		hist[v]++
	}
	var total int64
	for _, v := range p.b {
		total += hist[v]
	}
	return total
}

type rect struct{ i0, i1, j0, j1 int }

func (r rect) area() int64 { return int64(r.i1-r.i0) * int64(r.j1-r.j0) }

type ws struct {
	stack []rect
}

// Clone implements sched.Workspace.
func (w *ws) Clone() sched.Workspace {
	c := &ws{stack: make([]rect, len(w.stack), len(w.stack)+8)}
	copy(c.stack, w.stack)
	return c
}

// Bytes implements sched.Workspace: no taskprivate payload.
func (w *ws) Bytes() int { return 0 }

// CopyFrom implements sched.Reusable, so the spawn arguments ride in a
// recycled workspace like any taskprivate payload (still charged nothing).
func (w *ws) CopyFrom(src sched.Workspace) { w.stack = append(w.stack[:0], src.(*ws).stack...) }

func (w *ws) top() rect { return w.stack[len(w.stack)-1] }

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	return &ws{stack: []rect{{0, p.N, 0, p.N}}}
}

// Terminal implements sched.Program: a block at or below the leaf side is
// compared directly.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	r := w.(*ws).top()
	if r.i1-r.i0 > p.Leaf || r.j1-r.j0 > p.Leaf {
		return 0, false
	}
	var sum int64
	for i := r.i0; i < r.i1; i++ {
		ai := p.a[i]
		for j := r.j0; j < r.j1; j++ {
			if ai == p.b[j] {
				sum++
			}
		}
	}
	return sum, true
}

// Moves implements sched.Program: split the longer side in two.
func (p *Program) Moves(w sched.Workspace, depth int) int { return 2 }

// Apply implements sched.Program.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	r := s.top()
	var child rect
	if r.i1-r.i0 >= r.j1-r.j0 {
		mid := (r.i0 + r.i1) / 2
		if m == 0 {
			child = rect{r.i0, mid, r.j0, r.j1}
		} else {
			child = rect{mid, r.i1, r.j0, r.j1}
		}
	} else {
		mid := (r.j0 + r.j1) / 2
		if m == 0 {
			child = rect{r.i0, r.i1, r.j0, mid}
		} else {
			child = rect{r.i0, r.i1, mid, r.j1}
		}
	}
	if child.area() == 0 {
		return false
	}
	s.stack = append(s.stack, child)
	return true
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	s := w.(*ws)
	s.stack = s.stack[:len(s.stack)-1]
}

// NodeCost implements sched.Coster: leaves pay for the real pairwise
// comparisons they perform (about 1ns per pair in the virtual cost model).
func (p *Program) NodeCost(w sched.Workspace, depth int) int64 {
	r := w.(*ws).top()
	if r.i1-r.i0 > p.Leaf || r.j1-r.j0 > p.Leaf {
		return 0
	}
	return r.area()
}
