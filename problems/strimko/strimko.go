// Package strimko is the paper's Strimko benchmark (Table 1): fill an n×n
// grid so that every row, every column and every *stream* (a partition of
// the cells into n chains of n cells) contains the digits 1..n exactly
// once. With streams set to the rows the stream constraint degenerates and
// the instance counts Latin squares — order 4 has 576 and order 5 has
// 161280, two classical absolute oracles the tests use.
package strimko

import (
	"fmt"

	"adaptivetc/internal/sched"
)

// Program counts the solutions of one Strimko instance. It is read-only once
// built, so concurrent jobs may share it.
type Program struct {
	n       int
	label   string
	stream  []int   // stream[cell] = stream index
	givens  []uint8 // 0 = empty
	empties []empty // the cells filled by the search, in row-major order
}

// empty is one cell the search fills, with its row, column and stream worked
// out once in New, so Apply — run for every candidate digit — divides by
// nothing.
type empty struct {
	cell, row, col, stream int32
}

// New builds an instance. stream assigns each of the n*n cells to one of n
// streams, each of which must contain exactly n cells; board gives the
// pre-filled digits (0 = empty).
func New(n int, stream []int, board []uint8, label string) *Program {
	if len(stream) != n*n || len(board) != n*n {
		panic(fmt.Sprintf("strimko: stream/board length %d/%d, want %d", len(stream), len(board), n*n))
	}
	count := make([]int, n)
	for _, s := range stream {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("strimko: stream index %d out of range [0,%d)", s, n))
		}
		count[s]++
	}
	for s, c := range count {
		if c != n {
			panic(fmt.Sprintf("strimko: stream %d has %d cells, want %d", s, c, n))
		}
	}
	p := &Program{n: n, label: label, stream: append([]int(nil), stream...), givens: append([]uint8(nil), board...)}
	for i, v := range board {
		if v == 0 {
			p.empties = append(p.empties, empty{cell: int32(i), row: int32(i / n), col: int32(i % n), stream: int32(stream[i])})
		}
	}
	return p
}

// LatinSquares returns the degenerate instance whose streams are the rows,
// so solutions are exactly the order-n Latin squares.
func LatinSquares(n int) *Program {
	stream := make([]int, n*n)
	for i := range stream {
		stream[i] = i / n
	}
	return New(n, stream, make([]uint8, n*n), fmt.Sprintf("latin(%d)", n))
}

// Diagonal returns the benchmark instance of side n: streams are the broken
// diagonals (stream s holds the cells (r, (s+r) mod n)), with the first
// `givens` cells in row-major order pre-filled from the cyclic solution
// v(r,c) = (2r+c) mod n (more givens → smaller search tree).
func Diagonal(n, givens int) *Program {
	stream := make([]int, n*n)
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			stream[r*n+(s+r)%n] = s
		}
	}
	board := make([]uint8, n*n)
	// Pre-fill from the cyclic Latin square v(r,c) = (2r + c) mod n, which
	// satisfies rows and columns for odd n and the broken-diagonal streams
	// when additionally gcd(n, 3) = 1 — so givens require n coprime to 6
	// (the paper's 7×7 qualifies).
	if givens > 0 && (n%2 == 0 || n%3 == 0) {
		panic(fmt.Sprintf("strimko: diagonal prefill needs n coprime to 6, got %d", n))
	}
	if givens > n*n {
		givens = n * n
	}
	for i := 0; i < givens; i++ {
		r, c := i/n, i%n
		board[i] = uint8((2*r+c)%n) + 1
	}
	return New(n, stream, board, fmt.Sprintf("diag(%d,%d)", n, givens))
}

// Name implements sched.Program.
func (p *Program) Name() string { return "strimko-" + p.label }

// EmptyCells returns the search depth.
func (p *Program) EmptyCells() int { return len(p.empties) }

type ws struct {
	n      int
	board  []uint8
	row    []uint32
	col    []uint32
	stream []uint32
}

// Clone implements sched.Workspace.
func (w *ws) Clone() sched.Workspace {
	return &ws{
		n:      w.n,
		board:  append([]uint8(nil), w.board...),
		row:    append([]uint32(nil), w.row...),
		col:    append([]uint32(nil), w.col...),
		stream: append([]uint32(nil), w.stream...),
	}
}

// Bytes implements sched.Workspace.
func (w *ws) Bytes() int { return len(w.board) + 4*(len(w.row)+len(w.col)+len(w.stream)) }

// CopyFrom implements sched.Reusable.
func (w *ws) CopyFrom(src sched.Workspace) {
	s := src.(*ws)
	w.n = s.n
	copy(w.board, s.board)
	copy(w.row, s.row)
	copy(w.col, s.col)
	copy(w.stream, s.stream)
}

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	w := &ws{
		n:      p.n,
		board:  append([]uint8(nil), p.givens...),
		row:    make([]uint32, p.n),
		col:    make([]uint32, p.n),
		stream: make([]uint32, p.n),
	}
	for cell, v := range w.board {
		if v == 0 {
			continue
		}
		bit := uint32(1) << (v - 1)
		r, c := cell/p.n, cell%p.n
		if w.row[r]&bit != 0 || w.col[c]&bit != 0 || w.stream[p.stream[cell]]&bit != 0 {
			panic("strimko: conflicting givens in " + p.label)
		}
		w.row[r] |= bit
		w.col[c] |= bit
		w.stream[p.stream[cell]] |= bit
	}
	return w
}

// Terminal implements sched.Program.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == len(p.empties) {
		return 1, true
	}
	return 0, false
}

// Moves implements sched.Program.
func (p *Program) Moves(w sched.Workspace, depth int) int { return p.n }

// Apply implements sched.Program.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	e := &p.empties[depth]
	bit := uint32(1) << m
	if (s.row[e.row]|s.col[e.col]|s.stream[e.stream])&bit != 0 {
		return false
	}
	s.board[e.cell] = uint8(m + 1)
	s.row[e.row] |= bit
	s.col[e.col] |= bit
	s.stream[e.stream] |= bit
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
	s.stream[e.stream] &^= bit
}
