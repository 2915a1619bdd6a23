// Package slaw implements the help-first scheduling policy and a SLAW-like
// adaptive switcher between help-first and work-first — the alternative
// adaptive scheduler the paper's related work contrasts AdaptiveTC with
// ("SLAW adaptively switches between work-first and help-first scheduling
// policies", Guo et al., IPDPS 2010).
//
// Under work-first (Cilk's policy, wsrt.Cilk) the worker executes the
// spawned child immediately and leaves its own continuation stealable.
// Under help-first the worker pushes the *child* as an unstarted task and
// continues its own loop, so a burst of spawns fans out breadth-first —
// good when thieves are starving, at the price of a frame and a workspace
// copy per spawn even when nothing is stolen.
//
// The adaptive policy uses a simplified SLAW rule: spawn help-first while
// the worker's deque holds fewer tasks than the worker count (parallelism
// still needs to be published), work-first once the deque is comfortably
// populated. This engine exists as an extension for comparison against
// AdaptiveTC, which adapts along a different axis (how many tasks exist at
// all, rather than which end of the spawn is made stealable).
//
// Its engines are rows like any other (wsrt.Strategy), but the spawn loop
// below is this package's own and not a configuration of wsrt.Fast: a
// help-first spawn pushes the child and keeps iterating, the loop ends by
// draining the children it queued, and the adaptive policy interleaves the
// two per move. Merging it would put a which-caller branch on Fast.Loop's
// per-spawn path for every other engine.
package slaw

import (
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// Policy selects the spawn side that becomes stealable. Always pushing the
// continuation is work-first, which is wsrt.Cilk.
type Policy int

const (
	// HelpFirst always pushes the child.
	HelpFirst Policy = iota
	// Adaptive switches per spawn on deque population (SLAW-like).
	Adaptive
)

// NewHelpFirst returns the pure help-first engine.
func NewHelpFirst() *wsrt.Strategy { return strategy("helpfirst", HelpFirst) }

// New returns the adaptive (SLAW-like) engine.
func New() *wsrt.Strategy { return strategy("slaw", Adaptive) }

func strategy(name string, policy Policy) *wsrt.Strategy {
	return wsrt.NewStrategy(name, func(n int, _ sched.Options) wsrt.Engine {
		return &exec{policy: policy, workers: n}
	})
}

type exec struct {
	policy  Policy
	workers int
}

// Root implements wsrt.Engine.
func (x *exec) Root(w *wsrt.Worker) (int64, bool) {
	return x.node(w, nil, w.Prog().Root(), 0)
}

// Resume implements wsrt.Engine. A stolen KindChild frame is an unstarted
// node; a stolen continuation resumes its loop.
func (x *exec) Resume(w *wsrt.Worker, f *wsrt.Frame) (int64, bool) {
	if f.Kind == wsrt.KindChild {
		f.Start()
		return x.nodeFrame(w, f)
	}
	return x.loop(w, f, f.PC, f.Sum)
}

func (x *exec) helpFirst(w *wsrt.Worker) bool {
	return x.policy == HelpFirst || w.Deque.Size() < x.workers
}

// node runs one task from scratch.
func (x *exec) node(w *wsrt.Worker, parent *wsrt.Frame, ws sched.Workspace, depth int) (int64, bool) {
	w.Visit(ws, depth)
	w.ChargeTask()
	if v, term := w.Prog().Terminal(ws, depth); term {
		return v, true
	}
	f := w.NewFrame(parent, ws, depth, depth, wsrt.KindFast)
	v, completed := x.loop(w, f, 0, 0)
	if completed {
		w.FreeFrame(f) // completed inline: the frame is dead and solely ours
	}
	return v, completed
}

// nodeFrame runs an unstarted child frame. Its task-creation cost was
// charged when the frame was spawned (help-first pays the frame up front),
// so only the node visit is charged here.
func (x *exec) nodeFrame(w *wsrt.Worker, f *wsrt.Frame) (int64, bool) {
	w.Visit(f.WS, f.Depth)
	if v, term := w.Prog().Terminal(f.WS, f.Depth); term {
		return v, true
	}
	return x.loop(w, f, 0, 0)
}

// loop is the spawn loop, choosing help-first or work-first per move.
func (x *exec) loop(w *wsrt.Worker, f *wsrt.Frame, pc int, sum int64) (int64, bool) {
	prog := w.Prog()
	ws, depth := f.WS, f.Depth
	n := prog.Moves(ws, depth)
	queued := 0 // our help-first children currently in the deque
	from := pc  // first attempt not charged yet (sched.Walker.ChargeMoves)
	for m := pc; m < n; m++ {
		if !prog.Apply(ws, depth, m) {
			continue
		}
		w.ChargeMoves(m + 1 - from)
		from = m + 1
		childWS := w.Clone(ws, false)
		prog.Undo(ws, depth, m)
		if x.helpFirst(w) {
			// Push the child, keep going: the spawn fans out. The frame is
			// paid for now, whether or not it is ever stolen — help-first's
			// intrinsic cost. childWS is never released: the frame holding
			// it is stealable from here on.
			w.ChargeTask()
			child := w.NewFrame(f, childWS, depth+1, depth+1, wsrt.KindChild)
			w.Push(child)
			queued++
			continue
		}
		// Work-first: push our continuation and dive into the child.
		f.PC, f.Sum = m+1, sum
		w.Push(f)
		v, completed := x.node(w, f, childWS, depth+1)
		if !completed {
			// Everything below our continuation — our queued help-first
			// children included — was stolen first; their values arrive as
			// deposits (the steal of each KindChild credited our join).
			return 0, false
		}
		if _, ok := w.Pop(); !ok {
			w.Deposit(f, v)
			return 0, false
		}
		w.Release(childWS) // as in wsrt.Fast.Loop: completed inline, f still ours
		sum += v
	}
	w.ChargeMoves(n - from)
	// Drain our queued help-first children: LIFO pops return them unless
	// they were stolen (head side), in which case the pop fails only after
	// everything of ours is gone.
	for queued > 0 {
		e, ok := w.Pop()
		if !ok {
			// The rest were stolen; each theft already registered a
			// pending deposit on our frame.
			break
		}
		child := e.(*wsrt.Frame)
		if child.Parent != f || child.Kind != wsrt.KindChild {
			panic("slaw: popped a frame that is not one of our queued children")
		}
		queued--
		child.Start()
		// Register the possible deposit *before* running the child: if it
		// suspends, its finaliser may deposit into f immediately, racing a
		// post-hoc registration.
		w.ExpectDeposit(f)
		v, completed := x.nodeFrame(w, child)
		if completed {
			w.CancelExpected(f)
			sum += v
			// The child ran to completion on our stack: dead, solely ours.
			w.FreeFrame(child)
			continue
		}
		// The child suspended (or detached): its total arrives by deposit.
	}
	return w.Sync(f, sum)
}
