package sched

import "adaptivetc/internal/vtime"

// Walker is what every engine's worker charges through: the node visit, the
// candidate moves and the sequence version's plain recursion. A worker embeds
// it, so w.Proc, w.Stats, w.Prog() and w.ChargeMoves read the same in every
// engine. Start binds it to one job's program, costs and stop flag.
type Walker struct {
	Proc  vtime.Proc
	Stats Stats

	prog  Program
	extra Coster // prog's per-node cost hook, resolved once; may be nil
	costs *Costs
	stop  *Stop // may be nil (never stopped)
	// wall is set when Proc is the wall clock, whose Advance and Yield are
	// empty (vtime.Charges). The zero value charges, like a Sim Proc.
	wall bool
}

// Start binds the walker to the program view p, costs c and stop flag stop,
// leaving the counters alone. Start(nil, nil, nil) drops the last job.
func (w *Walker) Start(p Program, c *Costs, stop *Stop) {
	w.prog, w.costs, w.stop = p, c, stop
	w.extra, _ = p.(Coster)
	w.wall = !vtime.Charges(w.Proc)
}

// Prog returns the program under execution.
func (w *Walker) Prog() Program { return w.prog }

// Wall reports whether the walker runs on the wall clock.
func (w *Walker) Wall() bool { return w.wall }

// Advance and Yield are the only calls into Proc.Advance and Proc.Yield;
// on the wall clock both are skipped.
func (w *Walker) Advance(d int64) {
	if !w.wall {
		w.Proc.Advance(d)
	}
}

func (w *Walker) Yield() {
	if !w.wall {
		w.Proc.Yield()
	}
}

// Visit accounts one node: cancellation poll, counter, modelled cost and a
// scheduling point, in that order. The poll is a nil check plus one atomic
// load and charges no virtual cost, so un-cancelled Sim runs do not move.
func (w *Walker) Visit(ws Workspace, depth int) {
	w.stop.Check()
	w.Stats.Nodes++
	if !w.wall { // skip the Coster call too
		cost := w.costs.Node
		if w.extra != nil {
			cost += w.extra.NodeCost(ws, depth)
		}
		w.Advance(cost)
		w.Yield()
	}
}

// ChargeMoves accounts k candidate moves in one Advance; k <= 0 costs
// nothing. A move loop keeps from, the first attempt it has not charged yet,
// and calls ChargeMoves(m+1-from) right after Apply(m) succeeds and
// ChargeMoves(n-from) once at its end, so a rejected move costs one Apply
// and nothing else. Sim sees the same clock: nothing between two Applys
// reads the clock or yields (DESIGN §26).
func (w *Walker) ChargeMoves(k int) {
	if k > 0 {
		w.Advance(int64(k) * w.costs.Move)
	}
}

// Sequence evaluates the subtree at ws with plain recursion and move undo —
// the paper's sequence version and the serial baseline: no tasks, no copies,
// nothing stealable. Every node is a stop poll, so a long sequential tail
// observes cancellation too.
func (w *Walker) Sequence(ws Workspace, depth int) int64 {
	w.Visit(ws, depth)
	p := w.prog
	if v, term := p.Terminal(ws, depth); term {
		return v
	}
	var sum int64
	n := p.Moves(ws, depth)
	from := 0
	for m := 0; m < n; m++ {
		if !p.Apply(ws, depth, m) {
			continue
		}
		w.ChargeMoves(m + 1 - from)
		from = m + 1
		sum += w.Sequence(ws, depth+1)
		p.Undo(ws, depth, m)
	}
	w.ChargeMoves(n - from)
	return sum
}

// FirstSolution evaluates the subtree at ws depth-first and returns the
// first nonzero terminal value it meets, abandoning the rest of the tree —
// the deterministic serial semantics of a first-solution run
// (Options.FirstSolution). found is false when the subtree holds no nonzero
// leaf; the walk then visited and charged every node, exactly like Sequence.
func (w *Walker) FirstSolution(ws Workspace, depth int) (value int64, found bool) {
	w.Visit(ws, depth)
	p := w.prog
	if v, term := p.Terminal(ws, depth); term {
		return v, v != 0
	}
	n := p.Moves(ws, depth)
	from := 0
	for m := 0; m < n; m++ {
		if !p.Apply(ws, depth, m) {
			continue
		}
		w.ChargeMoves(m + 1 - from)
		from = m + 1
		v, ok := w.FirstSolution(ws, depth+1)
		p.Undo(ws, depth, m)
		if ok {
			return v, true
		}
	}
	w.ChargeMoves(n - from)
	return 0, false
}
