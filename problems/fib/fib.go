// Package fib is the paper's Fib(n) benchmark: the doubly recursive
// Fibonacci function, the classic stress test for spawn overhead because
// there is almost no computation per task. Fib has no taskprivate data
// (Figure 4's caption excludes it from the Cilk-SYNCHED comparison), so its
// workspace reports zero payload bytes and engines charge no copying.
//
// The computation is phrased as a leaf sum: fib(n) = Σ of fib(0)=0 and
// fib(1)=1 over the leaves of the call tree, which is exactly the recursive
// definition.
package fib

import (
	"fmt"

	"adaptivetc/internal/sched"
)

// Program computes the N-th Fibonacci number recursively.
type Program struct {
	N int
}

// MaxN is the largest n whose Fibonacci number fits the int64 a run sums
// into.
const MaxN = 92

// New returns the Fib(n) benchmark.
func New(n int) *Program {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("fib: n=%d out of range [0,%d]", n, MaxN))
	}
	return &Program{N: n}
}

// Name implements sched.Program.
func (p *Program) Name() string { return fmt.Sprintf("fib(%d)", p.N) }

// Fib returns the expected answer, for tests and harness validation.
func Fib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

type ws struct {
	stack []int // stack[len-1] is the current subproblem's n
}

// Clone implements sched.Workspace.
func (w *ws) Clone() sched.Workspace {
	c := &ws{stack: make([]int, len(w.stack), len(w.stack)+8)}
	copy(c.stack, w.stack)
	return c
}

// Bytes implements sched.Workspace. Fib carries no taskprivate payload.
func (w *ws) Bytes() int { return 0 }

// CopyFrom implements sched.Reusable, so the spawn arguments ride in a
// recycled workspace like any taskprivate payload (still charged nothing).
func (w *ws) CopyFrom(src sched.Workspace) { w.stack = append(w.stack[:0], src.(*ws).stack...) }

func (w *ws) top() int { return w.stack[len(w.stack)-1] }

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace { return &ws{stack: []int{p.N}} }

// Terminal implements sched.Program.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	n := w.(*ws).top()
	if n < 2 {
		return int64(n), true
	}
	return 0, false
}

// Moves implements sched.Program: fib(n) spawns fib(n-1) and fib(n-2).
func (p *Program) Moves(w sched.Workspace, depth int) int { return 2 }

// Apply implements sched.Program.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	s.stack = append(s.stack, s.top()-1-m)
	return true
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	s := w.(*ws)
	s.stack = s.stack[:len(s.stack)-1]
}
