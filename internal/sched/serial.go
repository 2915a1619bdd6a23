package sched

import "adaptivetc/internal/vtime"

// CosterOf resolves p's optional per-node cost hook; nil means p charges
// only Costs.Node. Runtimes call it once per job and hand the result to
// NodeCharge, so a node visit does not repeat the interface assertion.
func CosterOf(p Program) Coster {
	extra, _ := p.(Coster)
	return extra
}

// NodeCharge is the modelled cost of visiting one node of the program extra
// was resolved from (see CosterOf).
func NodeCharge(extra Coster, ws Workspace, depth int, c *Costs) int64 {
	cost := c.Node
	if extra != nil {
		cost += extra.NodeCost(ws, depth)
	}
	return cost
}

// seqEval is the per-call state of a sequential evaluation: everything the
// recursion needs that does not change from node to node.
type seqEval struct {
	p     Program
	extra Coster
	c     *Costs
	proc  vtime.Proc
	st    *Stats
	stop  *Stop
	// wall is set when proc is the wall clock, whose Advance and Yield are
	// empty: the evaluation then makes neither call (vtime.Charges).
	wall bool
}

func newSeqEval(p Program, c *Costs, proc vtime.Proc, st *Stats, stop *Stop) seqEval {
	return seqEval{p: p, extra: CosterOf(p), c: c, proc: proc, st: st, stop: stop, wall: !vtime.Charges(proc)}
}

// advance and yield are the evaluation's only calls into proc's Advance and
// Yield; on the wall clock both are skipped.
func (e *seqEval) advance(d int64) {
	if !e.wall {
		e.proc.Advance(d)
	}
}

func (e *seqEval) yield() {
	if !e.wall {
		e.proc.Yield()
	}
}

// visit accounts one node: cancellation poll, counter, modelled cost and a
// scheduling point, in that order.
func (e *seqEval) visit(ws Workspace, depth int) {
	e.stop.Check()
	e.st.Nodes++
	if !e.wall { // skip NodeCharge's Coster call too
		e.advance(NodeCharge(e.extra, ws, depth, e.c))
		e.yield()
	}
}

// EvalSequential evaluates the subtree rooted at ws with plain recursion and
// move undo — no tasks, no copies. It is both the serial baseline and the
// "sequence version" that every parallel engine falls back to. Counters are
// accumulated into st; proc's clock advances by the modelled work.
func EvalSequential(p Program, ws Workspace, depth int, c *Costs, proc vtime.Proc, st *Stats) int64 {
	return EvalSequentialStop(p, ws, depth, c, proc, st, nil)
}

// EvalSequentialStop is EvalSequential with a cancellation poll at every
// node: when stop fires it panics with Abort, unwinding to the caller's
// top-level recover. A nil stop costs one predicted branch per node, and
// the poll charges no virtual cost, so traces and makespans of un-cancelled
// runs are unchanged.
func EvalSequentialStop(p Program, ws Workspace, depth int, c *Costs, proc vtime.Proc, st *Stats, stop *Stop) int64 {
	e := newSeqEval(p, c, proc, st, stop)
	return e.sum(ws, depth)
}

func (e *seqEval) sum(ws Workspace, depth int) int64 {
	e.visit(ws, depth)
	p := e.p
	if v, term := p.Terminal(ws, depth); term {
		return v
	}
	var sum int64
	n := p.Moves(ws, depth)
	from := 0 // first attempt not charged yet (chargeMoves)
	for m := 0; m < n; m++ {
		if !p.Apply(ws, depth, m) {
			continue
		}
		e.chargeMoves(m + 1 - from)
		from = m + 1
		sum += e.sum(ws, depth+1)
		p.Undo(ws, depth, m)
	}
	e.chargeMoves(n - from)
	return sum
}

// chargeMoves accounts k candidate moves in one Advance. The loops charge a
// run of rejected moves together with the accepted one that ends it, and
// the rest at their end: nothing between two Applys reads the clock or
// yields, so every clock value a worker observes is the one a charge per
// move would have given (DESIGN §26).
func (e *seqEval) chargeMoves(k int) {
	if k > 0 {
		e.advance(int64(k) * e.c.Move)
	}
}

// EvalFirstSolution evaluates the subtree rooted at ws depth-first and
// returns the first nonzero terminal value it meets, abandoning the rest of
// the tree — the deterministic serial semantics of a first-solution run
// (Options.FirstSolution). found is false when the subtree holds no nonzero
// leaf; the traversal then visited every node, exactly like EvalSequential.
// Node and move costs are charged identically to EvalSequentialStop so
// makespans stay comparable.
func EvalFirstSolution(p Program, ws Workspace, depth int, c *Costs, proc vtime.Proc, st *Stats, stop *Stop) (value int64, found bool) {
	e := newSeqEval(p, c, proc, st, stop)
	return e.first(ws, depth)
}

func (e *seqEval) first(ws Workspace, depth int) (value int64, found bool) {
	e.visit(ws, depth)
	p := e.p
	if v, term := p.Terminal(ws, depth); term {
		return v, v != 0
	}
	n := p.Moves(ws, depth)
	from := 0
	for m := 0; m < n; m++ {
		if !p.Apply(ws, depth, m) {
			continue
		}
		e.chargeMoves(m + 1 - from)
		from = m + 1
		v, ok := e.first(ws, depth+1)
		p.Undo(ws, depth, m)
		if ok {
			return v, true
		}
	}
	e.chargeMoves(n - from)
	return 0, false
}

// Serial runs the program on one worker with no scheduling machinery at all.
// It is the baseline every speedup in the paper (and here) is computed
// against.
type Serial struct{}

// Name implements Engine.
func (Serial) Name() string { return "serial" }

// Run implements Engine. Options.Ctx is honoured: cancellation aborts the
// recursion at the next node visit and is reported as the run's error.
func (s Serial) Run(p Program, opt Options) (res Result, err error) {
	costs := opt.CostsOrDefault()
	var st Stats
	var value int64
	stop := &Stop{}
	release := WatchContext(opt.Ctx, stop)
	defer release()
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(Abort)
			if !ok {
				panic(r)
			}
			res = Result{Workers: 1, Engine: s.Name(), Program: p.Name(), Stats: st}
			err = ab.Err
		}
	}()
	plat := opt.PlatformOrDefault()
	makespan := plat.Run(1, func(proc vtime.Proc) {
		start := proc.Now()
		if opt.FirstSolution {
			value, _ = EvalFirstSolution(p, p.Root(), 0, &costs, proc, &st, stop)
		} else {
			value = EvalSequentialStop(p, p.Root(), 0, &costs, proc, &st, stop)
		}
		st.WorkerTime += proc.Now() - start
	})
	st.DeriveWorkTime()
	return Result{
		Value:    value,
		Makespan: makespan,
		Workers:  1,
		Engine:   s.Name(),
		Program:  p.Name(),
		Stats:    st,
	}, nil
}
