// Package cilk implements the Cilk 5.4.6 baseline of the paper: a
// work-first work-stealing scheduler in which *every* spawn creates a task.
// That is wsrt.Fast — the shared spawn loop with its push / clone / run
// inline / pop-or-deposit protocol, the fast-version/slow-version split of
// Cilk's compiled output — configured with no cutoff at all; the workspace
// copy at every spawn is the correctness-mandated "workspace copying" the
// paper measures.
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

// NewExec implements wsrt.PoolEngine: Cilk is the fast version with no
// cutoff, SYNCHED the same with pooled child workspaces.
func (e *Engine) NewExec(n int, opt sched.Options) wsrt.Engine {
	return &wsrt.Fast{Kind: wsrt.KindFast, Pooled: e.synched}
}
