package wsrt

import "adaptivetc/internal/sched"

// Strategy is a scheduling engine as a value: a name, and the rule that
// builds what one job of it executes. It is the only implementation of
// sched.Engine and PoolEngine over this runtime, so an engine is a row — the
// four below, and the ones internal/core and internal/slaw build around their
// own code — not a package with its own Name, Run and NewExec. The root
// package's table lists the rows; nothing else maps names to engines.
type Strategy struct {
	name string
	exec func(n int, opt sched.Options) Engine
}

// NewStrategy returns the engine called name whose jobs run exec(n, opt): n
// is the worker count of the run (or of the pool shard hosting the job), opt
// supplies strategy parameters (cutoff overrides, fast_2 multiplier) and
// carries no pool state.
func NewStrategy(name string, exec func(n int, opt sched.Options) Engine) *Strategy {
	return &Strategy{name: name, exec: exec}
}

// Name implements sched.Engine and PoolEngine.
func (s *Strategy) Name() string { return s.name }

// Run implements sched.Engine: one batch run on workers of its own.
func (s *Strategy) Run(p sched.Program, opt sched.Options) (sched.Result, error) {
	return Run(p, opt, s.exec(opt.WorkersOrDefault(), opt), s.name)
}

// NewExec implements PoolEngine.
func (s *Strategy) NewExec(n int, opt sched.Options) Engine { return s.exec(n, opt) }

// The baselines that are Fast and nothing more.
var (
	// Cilk is the Cilk 5.4.6 baseline: a work-first scheduler in which every
	// spawn creates a task — the fast version with no cutoff at all — and
	// the workspace copy at every spawn is the correctness-mandated
	// "workspace copying" the paper measures. A Cilk task that reaches its
	// sync with outstanding children is suspended and its worker goes back
	// to stealing; the last child's deposit resumes (finalises) it.
	Cilk = NewStrategy("cilk", func(int, sched.Options) Engine {
		return &Fast{Kind: KindFast}
	})

	// CilkSynched models Cilk's SYNCHED-variable space optimisation: child
	// workspaces come from a per-worker pool, so allocation is saved, but
	// "all child tasks still have to copy the data from their parent tasks,
	// and hence, the time overhead is not reduced" — the per-byte copy cost
	// stays.
	CilkSynched = NewStrategy("cilk-synched", func(int, sched.Options) Engine {
		return &Fast{Kind: KindFast, Pooled: true}
	})

	// CutoffProgrammer and CutoffLibrary are the cut-off baselines of the
	// paper's Figure 9: a fixed cut-off below which plain recursion takes
	// over, so on unbalanced trees they starve — once the shallow tasks are
	// consumed, the work hiding below the cut-off can never be stolen. The
	// programmer supplies the depth (Options.Cutoff; ⌈log2 N⌉ when unset)
	// and also knows copying is unnecessary below it, so the sequential part
	// reuses the parent workspace with move undo.
	CutoffProgrammer = NewStrategy("cutoff-programmer", func(n int, opt sched.Options) Engine {
		cut := opt.Cutoff
		if cut <= 0 {
			cut = sched.LogCutoff(n)
		}
		return &Fast{Kind: KindFast, Cutoff: cut, Below: (*Worker).Sequence}
	})

	// CutoffLibrary picks ⌈log2 N⌉ itself, but — as the paper notes — "the
	// cost of workspace copying cannot be reduced": a library transform
	// cannot prove the workspace private, so every child below the cut-off
	// still gets an allocate-and-copy.
	CutoffLibrary = NewStrategy("cutoff-library", func(n int, _ sched.Options) Engine {
		return &Fast{Kind: KindFast, Cutoff: sched.LogCutoff(n), Below: (*Worker).sequenceCopying}
	})
)
