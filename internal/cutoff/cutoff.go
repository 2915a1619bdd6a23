// Package cutoff implements the two cut-off baselines of the paper's
// Figure 9. Both are wsrt.Fast — the shared Cilk-style spawn loop — with a
// fixed cut-off below which plain recursion takes over, so on unbalanced
// trees they starve: once the shallow tasks are consumed, the work hiding
// below the cut-off can never be stolen. The variants differ only in what
// that recursion is:
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

// NewExec implements wsrt.PoolEngine. Neither variant creates tasks below
// the cut-off, so nothing there is stealable — the source of the starvation
// Figure 9 demonstrates.
func (e *Engine) NewExec(n int, opt sched.Options) wsrt.Engine {
	if e.variant == Library {
		return &wsrt.Fast{Kind: wsrt.KindFast, Cutoff: sched.LogCutoff(n), Below: seqCopy}
	}
	cut := opt.Cutoff
	if cut <= 0 {
		cut = sched.LogCutoff(n)
	}
	return &wsrt.Fast{Kind: wsrt.KindFast, Cutoff: cut, Below: (*wsrt.Worker).Sequence}
}

// seqCopy is the Library variant's sequential recursion: still one
// allocate-and-copy per child, because a library cut-off cannot know the
// workspace could be shared and undone.
func seqCopy(w *wsrt.Worker, ws sched.Workspace, depth int) int64 {
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
		childWS := w.Clone(ws, false)
		prog.Undo(ws, depth, m)
		sum += seqCopy(w, childWS, depth+1)
		w.Release(childWS) // plain recursion: nothing below ever left this stack
	}
	return sum
}
