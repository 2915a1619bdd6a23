// Package knight is the paper's Knight's Tour benchmark: count the open
// knight's tours on an m×m chessboard starting from a given square — every
// square visited exactly once. The paper runs 6×6 (a multi-thousand-second
// computation in 2010 C); the harness defaults to 5×5 or 5×6 variants and
// scales up under -full.
package knight

import (
	"fmt"

	"adaptivetc/internal/sched"
)

var deltas = [8][2]int{
	{1, 2}, {2, 1}, {2, -1}, {1, -2},
	{-1, -2}, {-2, -1}, {-2, 1}, {-1, 2},
}

// Program counts open tours on a W×H board from (StartR, StartC).
type Program struct {
	W, H           int
	StartR, StartC int
}

// MaxCells is the largest board the workspace represents: the path holds
// cell indices as int16.
const MaxCells = 1<<15 - 1

// New returns the tour count program for an m×m board starting at (0,0).
func New(m int) *Program { return NewRect(m, m, 0, 0) }

// NewRect returns the tour count program for a W×H board from (r0, c0).
func NewRect(w, h, r0, c0 int) *Program {
	if w < 1 || h < 1 || w*h > MaxCells || r0 < 0 || r0 >= h || c0 < 0 || c0 >= w {
		panic(fmt.Sprintf("knight: invalid board %dx%d start (%d,%d)", w, h, r0, c0))
	}
	return &Program{W: w, H: h, StartR: r0, StartC: c0}
}

// Name implements sched.Program.
func (p *Program) Name() string {
	return fmt.Sprintf("knight(%dx%d@%d,%d)", p.W, p.H, p.StartR, p.StartC)
}

type ws struct {
	w, h    int
	visited []bool
	path    []int16 // cell indices, path[0] is the start
}

// Clone implements sched.Workspace. The copy keeps the source's path
// capacity — the fixed W×H array Root allocates, which the paper's
// taskprivate copies whole — so Bytes is a constant of the program, not of
// append's growth policy or of where the workspace came from.
func (s *ws) Clone() sched.Workspace {
	return &ws{
		w: s.w, h: s.h,
		visited: append([]bool(nil), s.visited...),
		path:    append(make([]int16, 0, cap(s.path)), s.path...),
	}
}

// Bytes implements sched.Workspace: the board occupancy plus the path —
// the tour's chessboard workspace.
func (s *ws) Bytes() int { return len(s.visited) + 2*cap(s.path) }

// CopyFrom implements sched.Reusable.
func (s *ws) CopyFrom(src sched.Workspace) {
	o := src.(*ws)
	s.w, s.h = o.w, o.h
	copy(s.visited, o.visited)
	s.path = append(s.path[:0], o.path...)
}

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	s := &ws{
		w: p.W, h: p.H,
		visited: make([]bool, p.W*p.H),
		path:    make([]int16, 1, p.W*p.H),
	}
	start := p.StartR*p.W + p.StartC
	s.visited[start] = true
	s.path[0] = int16(start)
	return s
}

// Terminal implements sched.Program: a tour is complete after W*H-1 moves.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == p.W*p.H-1 {
		return 1, true
	}
	return 0, false
}

// Moves implements sched.Program: the 8 knight moves.
func (p *Program) Moves(w sched.Workspace, depth int) int { return 8 }

// Apply implements sched.Program.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	cur := int(s.path[len(s.path)-1])
	r := cur/s.w + deltas[m][0]
	c := cur%s.w + deltas[m][1]
	if r < 0 || r >= s.h || c < 0 || c >= s.w {
		return false
	}
	cell := r*s.w + c
	if s.visited[cell] {
		return false
	}
	s.visited[cell] = true
	s.path = append(s.path, int16(cell))
	return true
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	s := w.(*ws)
	cell := s.path[len(s.path)-1]
	s.visited[cell] = false
	s.path = s.path[:len(s.path)-1]
}
