// Package synthtree generates the unbalanced search trees of the paper's
// §5.3 (Figure 8, Table 3, Figure 10). The paper builds its trees with a
// per-node linear congruential generator x_{i+1} = (x_i·A + C) mod M —
// "xi is localized in each node and is used to get the size of each
// sub-tree" — so the split is random at every node, and Table 3's
// "percent numbers" column records the split the RNG happened to produce
// at depth 1. We reproduce that structure: the depth-1 fractions are
// specified exactly (Table 3's published values), and every deeper node
// splits its size among up to seven children by largest-remainder
// apportionment of random weights uᵢ^Alpha drawn from the node-local LCG;
// Alpha tunes how lopsided the deep splits are (Tree1 < Tree2 < Tree3).
//
// Reversing a tree (Tree*L ↔ Tree*R) reverses the weight order at every
// node, producing the exact mirror: same sizes, same depth, heavy subtrees
// moved from the first child position to the last — the pair the paper
// uses to expose Tascell's wait-time asymmetry.
//
// The value of the whole tree is exactly Spec.Size (every leaf is worth 1
// and interior nodes apportion their size without loss), which doubles as
// a correctness oracle for every engine. Per-node work is a constant (the
// paper: "we set the execution time of each node to the average time of
// the task in the benchmarks").
package synthtree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"adaptivetc/internal/sched"
)

// LCG constants (Numerical Recipes), standing in for the paper's
// unpublished A, C, M.
const (
	lcgA = 1664525
	lcgC = 1013904223
	lcgM = 1 << 32
)

// Spec describes one synthetic tree.
type Spec struct {
	// Label names the tree in reports ("tree1L", …).
	Label string
	// Size is the number of leaves — and therefore the tree's value.
	// (The paper's "size" column counts all nodes; sched.Analyze reports
	// that for our trees.)
	Size int64
	// RootFractions is the exact depth-1 split (Table 3's last column).
	// It is normalised internally; length ≤ 7 in the paper's trees.
	RootFractions []float64
	// Alpha skews the random splits below the root: each node draws child
	// weights uᵢ^Alpha from its LCG stream. 0 means 2.0; larger values
	// give more lopsided deep splits (longer, heavier spines).
	Alpha float64
	// PosBias makes the tree *systematically* left-heavy: child i's weight
	// is additionally scaled by PosBias^i at every node, so early children
	// are consistently larger — what the paper's "Tree*L is a left-heavy
	// tree" describes, and what Tascell's keep-the-early-iterations rule
	// interacts with. 0 or 1 means no positional bias.
	PosBias float64
	// Reversed mirrors the tree (left-heavy ↔ right-heavy).
	Reversed bool
	// Seed feeds the per-node LCG.
	Seed uint32
	// NodeWork is the simulated per-node execution time in nanoseconds
	// (via sched.Coster). Zero means 1000 — the paper set each node to "the
	// average time of the task in the benchmarks".
	NodeWork int64
	// PayloadBytes is the size the workspace reports for copy-cost
	// purposes, standing in for the Sudoku status the paper's trees came
	// from. Zero means 128.
	PayloadBytes int
}

// Reverse returns the mirrored (right-heavy ↔ left-heavy) spec.
func (s Spec) Reverse() Spec {
	r := s
	r.Reversed = !s.Reversed
	if len(r.Label) > 0 {
		switch r.Label[len(r.Label)-1] {
		case 'L':
			r.Label = r.Label[:len(r.Label)-1] + "R"
		case 'R':
			r.Label = r.Label[:len(r.Label)-1] + "L"
		default:
			r.Label += "-rev"
		}
	}
	return r
}

// Tree1 uses Table 3's Tree1L depth-1 fractions
// (42.512, 25.362, 13.019, 4.936, 0.416, 11.771, 1.984).
func Tree1(size int64) Spec {
	return Spec{Label: "tree1L", Size: size, Alpha: 1.5, PosBias: 0.75,
		RootFractions: []float64{42.512, 25.362, 13.019, 4.936, 0.416, 11.771, 1.984}}
}

// Tree2 uses Table 3's Tree2L depth-1 fractions
// (74.492, 20.791, 1.106, 2.732, 0.637, 0.049, 0.193).
func Tree2(size int64) Spec {
	return Spec{Label: "tree2L", Size: size, Alpha: 1.5, PosBias: 0.55,
		RootFractions: []float64{74.492, 20.791, 1.106, 2.732, 0.637, 0.049, 0.193}}
}

// Tree3 uses Table 3's Tree3L depth-1 fractions, the most unbalanced
// (89.675, 6.891, 1.836, 0.819, 0.645, 0.026, 0.108).
func Tree3(size int64) Spec {
	return Spec{Label: "tree3L", Size: size, Alpha: 1.5, PosBias: 0.4,
		RootFractions: []float64{89.675, 6.891, 1.836, 0.819, 0.645, 0.026, 0.108}}
}

// Fig8 approximates the Figure 8 tree shape (the Sudoku input1 tree):
// depth-1 subtrees of 61.04%, 27.99% and 10.97%, skewed all the way down.
func Fig8(size int64) Spec {
	return Spec{Label: "fig8", Size: size, Alpha: 3,
		RootFractions: []float64{61.04, 27.99, 10.97}, Seed: 8}
}

// Program is the runnable tree.
type Program struct {
	spec  Spec
	roots []float64 // normalised root fractions
	work  int64
	bytes int
}

// Validate reports why New would refuse the spec: a size below 1, no root
// fractions, a fraction that is negative, NaN or infinite, or fractions
// that sum to zero.
func (s Spec) Validate() error {
	if s.Size < 1 {
		return fmt.Errorf("synthtree: size %d < 1", s.Size)
	}
	if len(s.RootFractions) == 0 {
		return errors.New("synthtree: no root fractions")
	}
	var sum float64
	for _, f := range s.RootFractions {
		if !(f >= 0) || math.IsInf(f, 1) {
			return fmt.Errorf("synthtree: fraction %v is not a finite non-negative number", f)
		}
		sum += f
	}
	if sum <= 0 {
		return errors.New("synthtree: zero fraction vector")
	}
	return nil
}

// New compiles a spec. It panics if spec.Validate fails.
func New(spec Spec) *Program {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	var sum float64
	for _, f := range spec.RootFractions {
		sum += f
	}
	if spec.Alpha == 0 {
		spec.Alpha = 2
	}
	p := &Program{spec: spec, work: spec.NodeWork, bytes: spec.PayloadBytes}
	for _, f := range spec.RootFractions {
		p.roots = append(p.roots, f/sum)
	}
	if p.work == 0 {
		p.work = 1000
	}
	if p.bytes == 0 {
		p.bytes = 128
	}
	return p
}

// Name implements sched.Program.
func (p *Program) Name() string { return "synthtree-" + p.spec.Label }

// Spec returns the tree's specification.
func (p *Program) Spec() Spec { return p.spec }

// node identifies a subtree: its size and its LCG stream state. expanded
// says its child apportionment is cached in the workspace's kids slab.
type node struct {
	size     int64
	seed     uint32
	expanded bool
}

// ws is the path from the root to the current node. Its slices hold no
// pointers, so Clone and CopyFrom are plain memmoves with no write barrier
// per element, whatever the depth.
type ws struct {
	bytes   int
	payload []byte
	stack   []node
	// kids holds the child sizes of stack level i at [i·k, (i+1)·k), k the
	// number of root fractions: Apply grows it by k, Undo shrinks it.
	kids []int64
	// scratch holds childSizes' weights, then their fractional parts. It is
	// evaluation state, not tree state: Clone does not pass it on and
	// CopyFrom leaves the receiver's.
	scratch []float64
}

// Clone implements sched.Workspace.
func (w *ws) Clone() sched.Workspace {
	k := len(w.kids) / len(w.stack)
	c := &ws{
		bytes: w.bytes,
		stack: append(make([]node, 0, len(w.stack)+8), w.stack...),
		kids:  append(make([]int64, 0, len(w.kids)+8*k), w.kids...),
	}
	if w.payload != nil {
		c.payload = append([]byte(nil), w.payload...)
	}
	return c
}

// Bytes implements sched.Workspace.
func (w *ws) Bytes() int { return w.bytes }

// CopyFrom implements sched.Reusable.
func (w *ws) CopyFrom(src sched.Workspace) {
	s := src.(*ws)
	w.bytes = s.bytes
	w.stack = append(w.stack[:0], s.stack...)
	w.kids = append(w.kids[:0], s.kids...)
	if s.payload != nil {
		w.payload = append(w.payload[:0], s.payload...)
	}
}

func (w *ws) top() node { return w.stack[len(w.stack)-1] }

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace {
	return &ws{
		bytes:   p.bytes,
		payload: make([]byte, p.bytes),
		stack:   []node{{size: p.spec.Size, seed: p.spec.Seed}},
		kids:    make([]int64, len(p.roots)),
	}
}

// Terminal implements sched.Program: a subtree of size 1 is a leaf worth 1,
// so the tree total equals Spec.Size exactly.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if w.(*ws).top().size == 1 {
		return 1, true
	}
	return 0, false
}

// Moves implements sched.Program.
func (p *Program) Moves(w sched.Workspace, depth int) int { return len(p.roots) }

// weight is u^Alpha. Tree1–3's α = 1.5 is u·√u: math.Pow gets there
// through Exp(0.5·Log u) at several times the cost, and the two differ by a
// few ulps at most — never enough to move a child's size in any tree
// TestShapePinned covers. Every other α goes through math.Pow.
func (p *Program) weight(u float64) float64 {
	if p.spec.Alpha == 1.5 {
		return u * math.Sqrt(u)
	}
	return math.Pow(u, p.spec.Alpha)
}

// childSizes apportions a node's size among its children into sizes: the
// exact root fractions at depth 0, LCG-drawn uᵢ^Alpha weights below.
// Deterministic in (size, seed, depth). scratch has len(sizes) elements and
// holds the weights, then each child's fractional part.
func (p *Program) childSizes(n node, depth int, sizes []int64, scratch []float64) {
	k := len(sizes)
	weights := scratch
	if depth == 0 {
		copy(weights, p.roots)
	} else {
		x := n.seed
		bias := 1.0
		for i := range weights {
			x = x*lcgA + lcgC // mod 2^32 implicit in uint32 arithmetic
			u := (float64(x) + 1) / float64(lcgM)
			weights[i] = p.weight(u) * bias
			if p.spec.PosBias > 0 && p.spec.PosBias < 1 {
				bias *= p.spec.PosBias
			}
		}
	}
	if p.spec.Reversed {
		for i, j := 0, k-1; i < j; i, j = i+1, j-1 {
			weights[i], weights[j] = weights[j], weights[i]
		}
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	rem := n.size
	frac := weights // each weight is read once, then its slot holds the remainder
	var assigned int64
	for i, w := range weights {
		exact := float64(rem) * w / sum
		sizes[i] = int64(exact)
		frac[i] = exact - float64(sizes[i])
		assigned += sizes[i]
	}
	// Largest remainder: hand out the leftover units.
	for assigned < rem {
		best := 0
		for i := 1; i < k; i++ {
			if frac[i] > frac[best] {
				best = i
			}
		}
		sizes[best]++
		frac[best] = -1
		assigned++
	}
	// A child as large as its parent would recurse forever; shave one unit
	// off to a neighbour so every child is strictly smaller.
	if rem > 1 {
		for i, s := range sizes {
			if s == rem {
				sizes[i]--
				sizes[(i+1)%k]++
				break
			}
		}
	}
}

// Apply implements sched.Program: descend into child m if it is non-empty.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*ws)
	k := len(p.roots)
	level := len(s.stack) - 1
	top := &s.stack[level]
	sizes := s.kids[level*k : (level+1)*k]
	if !top.expanded {
		if len(s.scratch) < k {
			s.scratch = make([]float64, k)
		}
		p.childSizes(*top, depth, sizes, s.scratch[:k])
		top.expanded = true
	}
	if sizes[m] == 0 {
		return false
	}
	// Mirrored trees must assign mirrored children identical subtree seeds,
	// so the child stream is keyed by the canonical (left-heavy) index.
	ci := m
	if p.spec.Reversed {
		ci = k - 1 - m
	}
	childSeed := top.seed*lcgA + lcgC + uint32(ci)*2654435761
	s.stack = append(s.stack, node{size: sizes[m], seed: childSeed})
	// The new level's slot is written before it is read (expanded is false).
	s.kids = slices.Grow(s.kids, k)[:len(s.kids)+k]
	return true
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	s := w.(*ws)
	s.stack = s.stack[:len(s.stack)-1]
	s.kids = s.kids[:len(s.kids)-len(p.roots)]
}

// NodeCost implements sched.Coster: constant per-node work.
func (p *Program) NodeCost(w sched.Workspace, depth int) int64 { return p.work }
