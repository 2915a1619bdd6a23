package progtest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"adaptivetc/internal/sched"
)

// Shape is a search tree's fingerprint: its value, node count and depth, and
// an FNV-64a hash of the (depth, move) pair of every accepted move in
// depth-first order. Two programs with equal shapes grow the same tree, so a
// rewrite of Apply / Undo that keeps every Shape keeps every schedule too.
type Shape struct {
	Value int64
	Nodes int64
	Depth int
	Hash  uint64
}

func (s Shape) String() string {
	return fmt.Sprintf("{Value: %d, Nodes: %d, Depth: %d, Hash: %#016x}", s.Value, s.Nodes, s.Depth, s.Hash)
}

// TreeShape walks p's whole tree depth first and returns its Shape.
func TreeShape(p sched.Program) Shape {
	var s Shape
	h := fnv.New64a()
	var buf [8]byte
	ws := p.Root()
	var walk func(depth int) int64
	walk = func(depth int) int64 {
		s.Nodes++
		s.Depth = max(s.Depth, depth)
		if v, term := p.Terminal(ws, depth); term {
			return v
		}
		var sum int64
		n := p.Moves(ws, depth)
		for m := 0; m < n; m++ {
			if !p.Apply(ws, depth, m) {
				continue
			}
			binary.LittleEndian.PutUint32(buf[:4], uint32(depth))
			binary.LittleEndian.PutUint32(buf[4:], uint32(m))
			h.Write(buf[:])
			sum += walk(depth + 1)
			p.Undo(ws, depth, m)
		}
		return sum
	}
	s.Value = walk(0)
	s.Hash = h.Sum64()
	return s
}
