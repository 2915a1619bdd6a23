// Package sudoku is the paper's Sudoku benchmark (Appendix A): count all
// solutions of a k²×k² grid (k=3 is the usual 9×9; k=2 is the 4×4 Shidoku
// whose empty grid famously has 288 solutions, a handy absolute oracle).
// The solver fills the empty cells in row-major order, branching on the k²
// candidate digits; the grid plus its row/column/box bitmasks is the
// taskprivate workspace.
//
// The paper evaluates three inputs: a balanced tree and two unbalanced
// inputs (input1 grows a 1.9-billion-node tree of depth 63 in Figure 8).
// Those inputs were not published, so Balanced, Input1 and Input2 are
// crafted here by deleting cells from a canonical solved grid. Deleting a
// front-loaded block empties the cells the solver fills first, so the
// branching spreads across the shallow levels — a bushy, balanced tree.
// Deleting uniformly leaves the early cells heavily constrained: the tree
// becomes a long spine where one child holds most of the total at every
// level — exactly the heavy-path shape of Figure 8, under which any fixed
// cut-off starves. Use sched.Analyze and experiments.HeavyPath to inspect
// the shapes.
package sudoku

import (
	"fmt"
	"math/rand"

	"adaptivetc/internal/sched"
)

// Program counts the solutions of one Sudoku instance. It is read-only once
// built, so concurrent jobs may share it.
type Program struct {
	k, n    int
	label   string
	givens  []uint8 // n*n board, 0 = empty
	empties []empty // the cells filled by the search, in row-major order
}

// empty is one cell the search fills, with its row, column and box worked
// out once in New: Apply runs for every candidate digit, and three divisions
// by the non-constant side were most of its cost.
type empty struct {
	cell, row, col, box int32
}

// New builds an instance from a board of side n=k² with 0 for empty cells.
func New(k int, board []uint8, label string) *Program {
	n := k * k
	if len(board) != n*n {
		panic(fmt.Sprintf("sudoku: board has %d cells, want %d", len(board), n*n))
	}
	p := &Program{k: k, n: n, label: label, givens: append([]uint8(nil), board...)}
	for i, v := range board {
		if v == 0 {
			r, c := i/n, i%n
			p.empties = append(p.empties, empty{cell: int32(i), row: int32(r), col: int32(c), box: int32((r/k)*k + c/k)})
		}
		if int(v) > n {
			panic(fmt.Sprintf("sudoku: cell %d holds %d, board side is %d", i, v, n))
		}
	}
	if !validGivens(k, board) {
		panic("sudoku: givens conflict: " + label)
	}
	return p
}

// Empty returns the blank k²×k² grid.
func Empty(k int) *Program {
	return New(k, make([]uint8, k*k*k*k), fmt.Sprintf("empty%d", k*k))
}

// Base returns the canonical solved grid b(r,c) = (k·(r mod k) + ⌊r/k⌋ + c) mod n.
func Base(k int) []uint8 {
	n := k * k
	b := make([]uint8, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b[r*n+c] = uint8((k*(r%k)+r/k+c)%n) + 1
		}
	}
	return b
}

// Carved deletes `removed` cells from the canonical solved grid. When
// frontBias is true the deletions concentrate on the low row-major indices,
// spreading the branching across the shallow levels (a bushy, balanced
// tree); uniform deletions leave the early cells heavily constrained and
// grow the heavy-path trees of Figures 8–10.
func Carved(k, removed int, seed int64, frontBias bool, label string) *Program {
	n := k * k
	cells := n * n
	if removed > cells {
		removed = cells
	}
	board := Base(k)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(cells)
	if frontBias {
		// Three quarters of the deletions come from the front half of the
		// board (where the solver starts), the rest from the back: the
		// branching then concentrates at the shallow levels of the search
		// tree, giving the Figure 8 style of imbalance. Which cells within
		// each half are removed still depends on the seed.
		var front, back []int
		for _, i := range order {
			if i < cells/2 {
				front = append(front, i)
			} else {
				back = append(back, i)
			}
		}
		nFront := removed * 3 / 4
		if nFront > len(front) {
			nFront = len(front)
		}
		nBack := removed - nFront
		if nBack > len(back) {
			nBack = len(back)
		}
		order = append(append([]int(nil), front[:nFront]...), back[:nBack]...)
		order = order[:nFront+nBack]
	} else {
		order = order[:removed]
	}
	for _, i := range order {
		board[i] = 0
	}
	return New(k, board, label)
}

// Balanced is the paper's input_balance stand-in: front-loaded deletions
// giving a comparatively even, bushy search tree.
func Balanced(k, removed int) *Program {
	return Carved(k, removed, 12345, true, fmt.Sprintf("balanced(%d)", removed))
}

// Input1 is the stand-in for the paper's unbalanced input1 (Figure 8):
// uniform deletions produce a heavy-path tree.
func Input1(k, removed int) *Program {
	return Carved(k, removed, 777, false, fmt.Sprintf("input1(%d)", removed))
}

// Input2 is the stand-in for the paper's unbalanced input2.
func Input2(k, removed int) *Program {
	return Carved(k, removed, 99991, false, fmt.Sprintf("input2(%d)", removed))
}

// Name implements sched.Program.
func (p *Program) Name() string { return "sudoku-" + p.label }

// EmptyCells returns how many cells the search fills (the tree depth).
func (p *Program) EmptyCells() int { return len(p.empties) }

func validGivens(k int, board []uint8) bool {
	n := k * k
	var row, col, box [][]bool
	for i := 0; i < n; i++ {
		row = append(row, make([]bool, n+1))
		col = append(col, make([]bool, n+1))
		box = append(box, make([]bool, n+1))
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := board[r*n+c]
			if v == 0 {
				continue
			}
			b := (r/k)*k + c/k
			if row[r][v] || col[c][v] || box[b][v] {
				return false
			}
			row[r][v], col[c][v], box[b][v] = true, true, true
		}
	}
	return true
}

// ws is the taskprivate workspace: the Status_t of Appendix A.
type ws struct {
	k, n  int
	board []uint8
	row   []uint32 // bit d set = digit d+1 used in the row
	col   []uint32
	box   []uint32
}

// Clone implements sched.Workspace.
func (w *ws) Clone() sched.Workspace {
	return &ws{
		k: w.k, n: w.n,
		board: append([]uint8(nil), w.board...),
		row:   append([]uint32(nil), w.row...),
		col:   append([]uint32(nil), w.col...),
		box:   append([]uint32(nil), w.box...),
	}
}

// Bytes implements sched.Workspace: board plus masks, the analogue of
// sizeof(Status_t).
func (w *ws) Bytes() int { return len(w.board) + 4*(len(w.row)+len(w.col)+len(w.box)) }

// CopyFrom implements sched.Reusable.
func (w *ws) CopyFrom(src sched.Workspace) {
	s := src.(*ws)
	w.k, w.n = s.k, s.n
	copy(w.board, s.board)
	copy(w.row, s.row)
	copy(w.col, s.col)
	copy(w.box, s.box)
}

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	w := &ws{
		k: p.k, n: p.n,
		board: append([]uint8(nil), p.givens...),
		row:   make([]uint32, p.n),
		col:   make([]uint32, p.n),
		box:   make([]uint32, p.n),
	}
	for r := 0; r < p.n; r++ {
		for c := 0; c < p.n; c++ {
			if v := w.board[r*p.n+c]; v != 0 {
				bit := uint32(1) << (v - 1)
				w.row[r] |= bit
				w.col[c] |= bit
				w.box[(r/p.k)*p.k+c/p.k] |= bit
			}
		}
	}
	return w
}

// Terminal implements sched.Program: every empty cell filled is a solution.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == len(p.empties) {
		return 1, true
	}
	return 0, false
}

// Moves implements sched.Program: the n candidate digits.
func (p *Program) Moves(w sched.Workspace, depth int) int { return p.n }

// Apply implements sched.Program: put digit m+1 into the depth-th empty
// cell if rows, columns and boxes allow.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	e := &p.empties[depth]
	bit := uint32(1) << m
	if (s.row[e.row]|s.col[e.col]|s.box[e.box])&bit != 0 {
		return false
	}
	s.board[e.cell] = uint8(m + 1)
	s.row[e.row] |= bit
	s.col[e.col] |= bit
	s.box[e.box] |= bit
	return true
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	s := w.(*ws)
	e := &p.empties[depth]
	bit := uint32(1) << m
	s.board[e.cell] = 0
	s.row[e.row] &^= bit
	s.col[e.col] &^= bit
	s.box[e.box] &^= bit
}
