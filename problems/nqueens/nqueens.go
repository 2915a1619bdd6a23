// Package nqueens provides the paper's two n-queens benchmarks (Table 1):
//
//   - Nqueen-array(n): keeps per-column and per-diagonal conflict arrays in
//     the workspace, so a move's legality is three array reads. More memory,
//     less time — and a bigger taskprivate payload to copy on every spawn,
//     which is why workspace copying dominates Cilk's overhead here.
//   - Nqueen-compute(n): keeps only the queen positions and re-scans the
//     placed queens to detect conflicts. More time per node, less memory —
//     here task creation and deque management dominate instead.
//
// The chessboard is the paper's canonical taskprivate example:
//
//	cilk int nqueens(int depth, int n, char* x)
//	    taskprivate: (*x) (n * sizeof(char));
package nqueens

import (
	"fmt"

	"adaptivetc/internal/sched"
)

// Variant selects the array or compute implementation.
type Variant int

const (
	// Array is Nqueen-array: conflict arrays in the workspace.
	Array Variant = iota
	// Compute is Nqueen-compute: conflicts recomputed from positions.
	Compute
)

// Program counts the placements of N non-attacking queens.
type Program struct {
	N       int
	Variant Variant
}

// MaxN is the largest board the workspaces represent: a column is an int8
// in Nqueen-compute's board.
const MaxN = 127

// NewArray returns Nqueen-array(n).
func NewArray(n int) *Program { return newProgram(n, Array) }

// NewCompute returns Nqueen-compute(n).
func NewCompute(n int) *Program { return newProgram(n, Compute) }

func newProgram(n int, v Variant) *Program {
	if n < 1 || n > MaxN {
		panic(fmt.Sprintf("nqueens: board size %d out of range [1,%d]", n, MaxN))
	}
	return &Program{N: n, Variant: v}
}

// Name implements sched.Program.
func (p *Program) Name() string {
	if p.Variant == Compute {
		return fmt.Sprintf("nqueen-compute(%d)", p.N)
	}
	return fmt.Sprintf("nqueen-array(%d)", p.N)
}

// Solutions returns the known solution counts for small boards (0 for
// boards beyond the table); used by tests.
func Solutions(n int) int64 {
	known := []int64{1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200, 73712, 365596}
	if n < len(known) {
		return known[n]
	}
	return 0
}

// arrayWS is the Nqueen-array workspace: positions plus conflict arrays,
// all four views of one slab, so a clone is one copy. A conflict entry is 1
// when a queen holds that column or diagonal and 0 otherwise; bytes rather
// than bools let Apply test all three with one OR and one branch.
type arrayWS struct {
	n    int
	slab []uint8
	x    []uint8 // x[row] = column of the queen on row
	cols []uint8
	d1   []uint8 // row+col diagonals
	d2   []uint8 // row-col+n-1 anti-diagonals
}

// newArrayWS lays the four arrays of an n-board out in slab, which must
// hold 6n-2 bytes.
func newArrayWS(n int, slab []uint8) *arrayWS {
	return &arrayWS{
		n:    n,
		slab: slab,
		x:    slab[:n],
		cols: slab[n : 2*n],
		d1:   slab[2*n : 4*n-1],
		d2:   slab[4*n-1:],
	}
}

// Clone implements sched.Workspace.
func (w *arrayWS) Clone() sched.Workspace {
	return newArrayWS(w.n, append([]uint8(nil), w.slab...))
}

// Bytes implements sched.Workspace: the taskprivate payload is the board
// and its conflict arrays.
func (w *arrayWS) Bytes() int { return len(w.x) + len(w.cols) + len(w.d1) + len(w.d2) }

// CopyFrom implements sched.Reusable for the SYNCHED pool.
func (w *arrayWS) CopyFrom(src sched.Workspace) {
	s := src.(*arrayWS)
	w.n = s.n
	copy(w.slab, s.slab)
}

// computeWS is the Nqueen-compute workspace: positions only.
type computeWS struct {
	n int
	x []int8
}

// Clone implements sched.Workspace.
func (w *computeWS) Clone() sched.Workspace {
	return &computeWS{n: w.n, x: append([]int8(nil), w.x...)}
}

// Bytes implements sched.Workspace: just the chessboard, as in the paper's
// taskprivate declaration.
func (w *computeWS) Bytes() int { return len(w.x) }

// CopyFrom implements sched.Reusable.
func (w *computeWS) CopyFrom(src sched.Workspace) {
	s := src.(*computeWS)
	w.n = s.n
	copy(w.x, s.x)
}

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	if p.Variant == Compute {
		return &computeWS{n: p.N, x: make([]int8, p.N)}
	}
	return newArrayWS(p.N, make([]uint8, 6*p.N-2))
}

// Terminal implements sched.Program: all N queens placed is a solution.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == p.N {
		return 1, true
	}
	return 0, false
}

// Moves implements sched.Program: one candidate column per move.
func (p *Program) Moves(w sched.Workspace, depth int) int { return p.N }

// Apply implements sched.Program: place a queen on (depth, m) if legal.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	switch ws := w.(type) {
	case *arrayWS:
		i1 := depth + m
		i2 := depth - m + ws.n - 1
		if ws.cols[m]|ws.d1[i1]|ws.d2[i2] != 0 {
			return false
		}
		ws.x[depth] = uint8(m)
		ws.cols[m], ws.d1[i1], ws.d2[i2] = 1, 1, 1
		return true
	case *computeWS:
		for r := 0; r < depth; r++ {
			c := int(ws.x[r])
			if c == m || r+c == depth+m || r-c == depth-m {
				return false
			}
		}
		ws.x[depth] = int8(m)
		return true
	default:
		panic("nqueens: foreign workspace")
	}
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	if ws, ok := w.(*arrayWS); ok {
		ws.cols[m] = 0
		ws.d1[depth+m] = 0
		ws.d2[depth-m+ws.n-1] = 0
	}
}

// NodeCost implements sched.Coster for the compute variant: re-scanning the
// placed queens for each of the N candidate columns costs work proportional
// to N×depth.
func (p *Program) NodeCost(w sched.Workspace, depth int) int64 {
	if p.Variant != Compute {
		return 0
	}
	return int64(p.N) * int64(depth) * 2
}
