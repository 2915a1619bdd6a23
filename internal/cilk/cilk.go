// Package cilk implements the Cilk 5.4.6 baseline of the paper: a
// work-first work-stealing scheduler in which *every* spawn creates a task.
// The executor pushes its continuation frame on the THE-protocol deque,
// copies the workspace for the child (the correctness-mandated "workspace
// copying" the paper measures), runs the child inline, and pops; a failed
// pop means the continuation was stolen, so the in-flight child value is
// deposited and the worker unwinds to the scheduler — exactly the
// fast-version/slow-version split of Cilk's compiled output.
//
// Unlike Tascell and unlike an AdaptiveTC special task, a Cilk task that
// reaches its sync with outstanding children is suspended and its worker
// goes back to stealing; the last child's deposit resumes (finalises) it.
//
// The SYNCHED variant models Cilk's SYNCHED-variable space optimisation:
// child workspaces come from a per-worker pool, so allocation is saved, but
// "all child tasks still have to copy the data from their parent tasks, and
// hence, the time overhead is not reduced" — the per-byte copy cost stays.
package cilk

import (
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// Engine is the Cilk baseline scheduler.
type Engine struct {
	synched bool
}

// New returns the plain Cilk engine.
func New() *Engine { return &Engine{} }

// NewSynched returns the Cilk-SYNCHED variant (pooled workspaces).
func NewSynched() *Engine { return &Engine{synched: true} }

// Name implements sched.Engine.
func (e *Engine) Name() string {
	if e.synched {
		return "cilk-synched"
	}
	return "cilk"
}

// Run implements sched.Engine.
func (e *Engine) Run(p sched.Program, opt sched.Options) (sched.Result, error) {
	return wsrt.Run(p, opt, e.NewExec(opt.WorkersOrDefault(), opt), e.Name())
}

// NewExec implements wsrt.PoolEngine.
func (e *Engine) NewExec(n int, opt sched.Options) wsrt.Engine {
	return &exec{synched: e.synched}
}

type exec struct {
	synched bool
}

// Root implements wsrt.Engine.
func (x *exec) Root(w *wsrt.Worker) (int64, bool) {
	return x.node(w, nil, w.Prog().Root(), 0)
}

// Resume implements wsrt.Engine: the slow version restores the saved PC and
// partial sum and continues the spawn loop.
func (x *exec) Resume(w *wsrt.Worker, f *wsrt.Frame) (int64, bool) {
	return x.loop(w, f, f.PC, f.Sum)
}

// node executes one task: a frame is charged at entry and freed at exit,
// for leaves too (Appendix B allocates the task_info before the terminal
// test).
func (x *exec) node(w *wsrt.Worker, parent *wsrt.Frame, ws sched.Workspace, depth int) (int64, bool) {
	w.BeginNode(ws, depth)
	w.ChargeTask()
	if v, term := w.Prog().Terminal(ws, depth); term {
		return v, true
	}
	f := w.NewFrame(parent, ws, depth, depth, wsrt.KindFast)
	v, completed := x.loop(w, f, 0, 0)
	if completed {
		// Completed inline: never stolen at the end, nothing pending — the
		// frame is dead and this worker is its sole owner.
		w.FreeFrame(f)
	}
	return v, completed
}

// loop runs f's spawn loop from move pc with the given partial sum.
// It returns (value, completed); completed==false means the computation
// detached (f was stolen, or f suspended at its sync point).
func (x *exec) loop(w *wsrt.Worker, f *wsrt.Frame, pc int, sum int64) (int64, bool) {
	prog := w.Prog()
	ws, depth := f.WS, f.Depth
	n := prog.Moves(ws, depth)
	for m := pc; m < n; m++ {
		w.ChargeMove()
		if !prog.Apply(ws, depth, m) {
			continue
		}
		var childWS sched.Workspace
		if x.synched {
			childWS = w.ClonePooled(ws)
		} else {
			childWS = w.Clone(ws)
		}
		prog.Undo(ws, depth, m)
		f.PC, f.Sum = m+1, sum
		w.Push(f)
		v, completed := x.node(w, f, childWS, depth+1)
		if !completed {
			// The child subtree detached, which means frames below it in
			// the deque — ours included — were stolen first. Do not pop,
			// do not deposit: the child's own finaliser will deliver to f.
			return 0, false
		}
		if _, ok := w.Pop(); !ok {
			// f was stolen while the child ran: the thief resumes the
			// continuation from f.PC; we hand it the in-flight child value.
			w.Deposit(f, v)
			return 0, false
		}
		if x.synched {
			w.Release(childWS)
		}
		sum += v
	}
	// sync
	return w.Sync(f, sum)
}
