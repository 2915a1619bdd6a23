// Package cutoff implements the two cut-off baselines of the paper's
// Figure 9. Both create Cilk-style tasks while the recursion depth is below
// a fixed cut-off and run plain recursion beyond it, so on unbalanced trees
// they starve: once the shallow tasks are consumed, the work hiding below
// the cut-off can never be stolen.
//
//   - Programmer: the cut-off depth is supplied by the programmer
//     (Options.Cutoff); below it the programmer also knows copying is
//     unnecessary, so the sequential part reuses the parent workspace with
//     move undo.
//   - Library: the runtime picks ⌈log2 N⌉ itself, but — as the paper notes —
//     "the cost of workspace copying cannot be reduced": a library transform
//     cannot prove the workspace private, so every child below the cut-off
//     still gets an allocate-and-copy.
package cutoff

import (
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// Variant selects which Figure 9 baseline an Engine is.
type Variant int

const (
	// Programmer is the user-specified cut-off with hand-optimised
	// (copy-free) sequential execution below it.
	Programmer Variant = iota
	// Library is the runtime-chosen cut-off with workspace copying intact.
	Library
)

// Engine is a cut-off strategy scheduler.
type Engine struct {
	variant Variant
}

// NewProgrammer returns the Cutoff-programmer baseline.
func NewProgrammer() *Engine { return &Engine{variant: Programmer} }

// NewLibrary returns the Cutoff-library baseline.
func NewLibrary() *Engine { return &Engine{variant: Library} }

// Name implements sched.Engine.
func (e *Engine) Name() string {
	if e.variant == Library {
		return "cutoff-library"
	}
	return "cutoff-programmer"
}

// Run implements sched.Engine.
func (e *Engine) Run(p sched.Program, opt sched.Options) (sched.Result, error) {
	return wsrt.Run(p, opt, e.NewExec(opt.WorkersOrDefault(), opt), e.Name())
}

// NewExec implements wsrt.PoolEngine.
func (e *Engine) NewExec(n int, opt sched.Options) wsrt.Engine {
	cut := opt.Cutoff
	if e.variant == Library || cut <= 0 {
		cut = sched.LogCutoff(n)
	}
	return &exec{variant: e.variant, cutoff: cut}
}

type exec struct {
	variant Variant
	cutoff  int
}

// Root implements wsrt.Engine.
func (x *exec) Root(w *wsrt.Worker) (int64, bool) {
	return x.node(w, nil, w.Prog().Root(), 0)
}

// Resume implements wsrt.Engine.
func (x *exec) Resume(w *wsrt.Worker, f *wsrt.Frame) (int64, bool) {
	return x.loop(w, f, f.PC, f.Sum)
}

func (x *exec) node(w *wsrt.Worker, parent *wsrt.Frame, ws sched.Workspace, depth int) (int64, bool) {
	if depth >= x.cutoff {
		return x.sequential(w, ws, depth), true
	}
	w.BeginNode(ws, depth)
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

func (x *exec) loop(w *wsrt.Worker, f *wsrt.Frame, pc int, sum int64) (int64, bool) {
	prog := w.Prog()
	ws, depth := f.WS, f.Depth
	n := prog.Moves(ws, depth)
	for m := pc; m < n; m++ {
		w.ChargeMove()
		if !prog.Apply(ws, depth, m) {
			continue
		}
		childWS := w.Clone(ws)
		prog.Undo(ws, depth, m)
		f.PC, f.Sum = m+1, sum
		w.Push(f)
		v, completed := x.node(w, f, childWS, depth+1)
		if !completed {
			return 0, false
		}
		if _, ok := w.Pop(); !ok {
			w.Deposit(f, v)
			return 0, false
		}
		sum += v
	}
	return w.Sync(f, sum)
}

// sequential is the below-cut-off execution. Neither variant creates tasks
// here, so nothing below the cut-off is stealable — the source of the
// starvation Figure 9 demonstrates.
func (x *exec) sequential(w *wsrt.Worker, ws sched.Workspace, depth int) int64 {
	if x.variant == Programmer {
		return sched.EvalSequentialStop(w.Prog(), ws, depth, w.Costs(), w.Proc, &w.Stats, w.Rt().Stop())
	}
	return x.seqCopy(w, ws, depth)
}

// seqCopy is the Library variant's sequential recursion: still one
// allocate-and-copy per child, because a library cut-off cannot know the
// workspace could be shared and undone.
func (x *exec) seqCopy(w *wsrt.Worker, ws sched.Workspace, depth int) int64 {
	w.BeginNode(ws, depth)
	prog := w.Prog()
	if v, term := prog.Terminal(ws, depth); term {
		return v
	}
	var sum int64
	n := prog.Moves(ws, depth)
	for m := 0; m < n; m++ {
		w.ChargeMove()
		if !prog.Apply(ws, depth, m) {
			continue
		}
		childWS := w.Clone(ws)
		prog.Undo(ws, depth, m)
		sum += x.seqCopy(w, childWS, depth+1)
	}
	return sum
}
