// Package pentomino is the paper's Pentomino(n) benchmark: tile a rectangle
// with n distinct pentominoes, counting all complete tilings. The search
// always extends the first empty cell in row-major order, branching over
// (piece, orientation) pairs whose anchor cell lands there — the classic
// exact-cover backtracking whose workspace (board occupancy + used-piece
// set) is taskprivate.
package pentomino

import (
	"fmt"
	"sort"

	"adaptivetc/internal/sched"
)

// cell is a (row, col) offset relative to a piece's anchor.
type cell struct{ r, c int }

// pieceNames orders the canonical 12 pentominoes.
const pieceNames = "FILNPTUVWXYZ"

var baseShapes = map[byte][]cell{
	'F': {{0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 1}},
	'I': {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}},
	'L': {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}},
	'N': {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {3, 1}},
	'P': {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}},
	'T': {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {2, 1}},
	'U': {{0, 0}, {0, 2}, {1, 0}, {1, 1}, {1, 2}},
	'V': {{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}},
	'W': {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}},
	'X': {{0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}},
	'Y': {{0, 1}, {1, 0}, {1, 1}, {2, 1}, {3, 1}},
	'Z': {{0, 0}, {0, 1}, {1, 1}, {2, 1}, {2, 2}},
}

// maxOrients bounds the orientations of any piece (8 = 4 rotations × 2
// reflections); move m encodes piece m/8 and orientation m%8.
const maxOrients = 8

// normalize sorts cells row-major and rebases them on the first cell, so an
// orientation can be anchored at the board's first empty cell.
func normalize(cs []cell) []cell {
	out := append([]cell(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].r != out[j].r {
			return out[i].r < out[j].r
		}
		return out[i].c < out[j].c
	})
	r0, c0 := out[0].r, out[0].c
	for i := range out {
		out[i].r -= r0
		out[i].c -= c0
	}
	return out
}

func rotate(cs []cell) []cell {
	out := make([]cell, len(cs))
	for i, c := range cs {
		out[i] = cell{c.c, -c.r}
	}
	return out
}

func reflect(cs []cell) []cell {
	out := make([]cell, len(cs))
	for i, c := range cs {
		out[i] = cell{c.r, -c.c}
	}
	return out
}

func key(cs []cell) string {
	s := ""
	for _, c := range cs {
		s += fmt.Sprintf("%d,%d;", c.r, c.c)
	}
	return s
}

// orientations returns the distinct normalized orientations of a shape.
func orientations(shape []cell) [][]cell {
	seen := map[string]bool{}
	var out [][]cell
	cur := shape
	for flip := 0; flip < 2; flip++ {
		for rot := 0; rot < 4; rot++ {
			n := normalize(cur)
			if k := key(n); !seen[k] {
				seen[k] = true
				out = append(out, n)
			}
			cur = rotate(cur)
		}
		cur = reflect(shape)
	}
	return out
}

// Program counts the tilings of a W×H rectangle by the given piece set.
type Program struct {
	W, H   int
	pieces []byte
	label  string
	shapes [][][]cell // shapes[p][o] = cell offsets
}

// MaxN is the number of canonical pentominoes, the largest n of New.
const MaxN = 12

// New returns the paper's Pentomino(n): the first n canonical pieces on a
// rectangle of area 5n (6×10 for the full set of 12).
func New(n int) *Program {
	if n < 1 || n > MaxN {
		panic(fmt.Sprintf("pentomino: n=%d out of range [1,%d]", n, MaxN))
	}
	dims := map[int][2]int{
		1: {5, 1}, 2: {5, 2}, 3: {5, 3}, 4: {5, 4}, 5: {5, 5}, 6: {5, 6},
		7: {5, 7}, 8: {5, 8}, 9: {5, 9}, 10: {5, 10}, 11: {5, 11}, 12: {6, 10},
	}
	d := dims[n]
	return NewBoard(d[0], d[1], pieceNames[:n], fmt.Sprintf("pentomino(%d)", n))
}

// NewBoard returns a tiling instance on a W×H board with the named pieces
// (a subset of "FILNPTUVWXYZ"; 5×len(pieces) must equal W*H).
func NewBoard(w, h int, pieces string, label string) *Program {
	if 5*len(pieces) != w*h {
		panic(fmt.Sprintf("pentomino: %d pieces cannot tile a %dx%d board", len(pieces), w, h))
	}
	p := &Program{W: w, H: h, pieces: []byte(pieces), label: label}
	for _, name := range p.pieces {
		shape, ok := baseShapes[name]
		if !ok {
			panic(fmt.Sprintf("pentomino: unknown piece %q", name))
		}
		p.shapes = append(p.shapes, orientations(shape))
	}
	return p
}

// Name implements sched.Program.
func (p *Program) Name() string { return p.label }

type placement struct {
	anchor int
	m      int
}

type ws struct {
	w, h   int
	board  []bool
	used   uint16
	placed []placement
}

// Clone implements sched.Workspace. The copy keeps the source's placed
// capacity (the fixed one-slot-per-piece array Root allocates), so Bytes is
// a constant of the program.
func (s *ws) Clone() sched.Workspace {
	return &ws{
		w: s.w, h: s.h,
		board:  append([]bool(nil), s.board...),
		used:   s.used,
		placed: append(make([]placement, 0, cap(s.placed)), s.placed...),
	}
}

// Bytes implements sched.Workspace.
func (s *ws) Bytes() int { return len(s.board) + 2 + 8*cap(s.placed) }

// CopyFrom implements sched.Reusable.
func (s *ws) CopyFrom(src sched.Workspace) {
	o := src.(*ws)
	s.w, s.h = o.w, o.h
	copy(s.board, o.board)
	s.used = o.used
	s.placed = append(s.placed[:0], o.placed...)
}

func (s *ws) firstEmpty() int {
	from := 0
	if n := len(s.placed); n > 0 {
		from = s.placed[n-1].anchor + 1
	}
	for i := from; i < len(s.board); i++ {
		if !s.board[i] {
			return i
		}
	}
	return -1
}

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	return &ws{w: p.W, h: p.H, board: make([]bool, p.W*p.H), placed: make([]placement, 0, len(p.pieces))}
}

// Terminal implements sched.Program: all pieces placed tiles the board.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == len(p.pieces) {
		return 1, true
	}
	return 0, false
}

// Moves implements sched.Program: every (piece, orientation) candidate.
func (p *Program) Moves(w sched.Workspace, depth int) int { return len(p.pieces) * maxOrients }

// Apply implements sched.Program: anchor the candidate at the first empty
// cell if the piece is unused and all five cells fit.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	piece, orient := m/maxOrients, m%maxOrients
	if s.used&(1<<piece) != 0 || orient >= len(p.shapes[piece]) {
		return false
	}
	anchor := s.firstEmpty()
	if anchor < 0 {
		return false
	}
	ar, ac := anchor/p.W, anchor%p.W
	shape := p.shapes[piece][orient]
	for _, c := range shape {
		r, cc := ar+c.r, ac+c.c
		if r < 0 || r >= p.H || cc < 0 || cc >= p.W || s.board[r*p.W+cc] {
			return false
		}
	}
	for _, c := range shape {
		s.board[(ar+c.r)*p.W+ac+c.c] = true
	}
	s.used |= 1 << piece
	s.placed = append(s.placed, placement{anchor: anchor, m: m})
	return true
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	s := w.(*ws)
	pl := s.placed[len(s.placed)-1]
	s.placed = s.placed[:len(s.placed)-1]
	piece, orient := pl.m/maxOrients, pl.m%maxOrients
	ar, ac := pl.anchor/p.W, pl.anchor%p.W
	for _, c := range p.shapes[piece][orient] {
		s.board[(ar+c.r)*p.W+ac+c.c] = false
	}
	s.used &^= 1 << piece
}
