package lang

import (
	"adaptivetc/internal/sched"
)

// workspace adapts the flat store to sched.Workspace: the taskprivate state
// of one task, copied on Clone exactly as the paper's taskprivate attribute
// prescribes. The payload is ev.ws; the rest of ev is evaluation scratch,
// which Clone never hands on, CopyFrom leaves alone and Bytes does not count.
type workspace struct {
	ev env
}

// Clone implements sched.Workspace: the struct and one copy of the cells.
func (w *workspace) Clone() sched.Workspace {
	return &workspace{ev: env{ws: append([]int64(nil), w.ev.ws...), shared: w.ev.shared}}
}

// Bytes implements sched.Workspace: the taskprivate payload size.
func (w *workspace) Bytes() int { return 8 * len(w.ev.ws) }

// CopyFrom implements sched.Reusable.
func (w *workspace) CopyFrom(src sched.Workspace) { copy(w.ev.ws, src.(*workspace).ev.ws) }

// Program adapts a Compiled ATC program to sched.Program, so every engine
// in the repository (Cilk, Tascell, AdaptiveTC, …) can run source written
// in the mini-language.
type Program struct {
	c       *Compiled
	wsProto *workspace
}

// NewProgram wraps a compiled ATC file, running the init block exactly
// once to establish the shared state and the root taskprivate state. The
// shared prototype is re-zeroed first, so wrapping the same Compiled twice
// is safe.
func NewProgram(c *Compiled) *Program { return c.runInit(0) }

// runInit runs the init block on a zeroed shared prototype and a fresh
// workspace, under the given for-loop budget (0: unbounded).
func (c *Compiled) runInit(budget int64) *Program {
	clear(c.sharedProto)
	root := &workspace{ev: env{ws: make([]int64, c.cells), shared: c.sharedProto, budget: budget}}
	c.initStmts(&root.ev)
	return &Program{c: c, wsProto: root}
}

// NewProgramGuarded wraps a compiled ATC file like NewProgram, but runs
// the init block defensively: for-loop iterations are bounded by budget
// (≤ 0 means the default 1<<22), and a runtime fault in init — an
// out-of-range index, a division by zero, an exceeded budget — is caught
// and returned as the positioned *Error it panicked with, instead of
// unwinding into the caller. This is the constructor for untrusted
// source: the program store probes every submission through it, so a
// hostile init block costs one bounded evaluation, not a wedged API
// handler.
func NewProgramGuarded(c *Compiled, budget int64) (p *Program, err error) {
	if budget <= 0 {
		budget = 1 << 22
	}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*Error); ok {
				p, err = nil, e
				return
			}
			panic(r)
		}
	}()
	return c.runInit(budget), nil
}

// CompileProgram is the one-call front end: source to runnable program.
func CompileProgram(name, src string, overrides map[string]int64) (*Program, error) {
	c, err := Compile(name, src, overrides)
	if err != nil {
		return nil, err
	}
	return NewProgram(c), nil
}

// CompileProgramGuarded is CompileProgram for untrusted source: compile
// errors and init-time runtime faults both come back as errors (with
// source positions when they have one), never as panics.
func CompileProgramGuarded(name, src string, overrides map[string]int64, initBudget int64) (*Program, error) {
	c, err := Compile(name, src, overrides)
	if err != nil {
		return nil, err
	}
	return NewProgramGuarded(c, initBudget)
}

// Compiled returns the underlying compiled file, for callers that need
// its catalog metadata (parameters, state size).
func (p *Program) Compiled() *Compiled { return p.c }

// Name implements sched.Program.
func (p *Program) Name() string { return "atc:" + p.c.name }

// Root implements sched.Program.
func (p *Program) Root() sched.Workspace { return p.wsProto.Clone() }

// envFor readies w's scratch for one call. Every field a previous call
// could have left behind is reset, whatever that call was: a guarded probe
// (budget), a rejected apply (rejected, log) or one that panicked half-way
// (logging).
func (p *Program) envFor(w sched.Workspace, depth, m int) *env {
	ev := &w.(*workspace).ev
	ev.depth, ev.m = int64(depth), int64(m)
	ev.rejected, ev.logging = false, false
	ev.log = ev.log[:0]
	ev.budget, ev.steps = 0, 0
	return ev
}

// Terminal implements sched.Program.
func (p *Program) Terminal(w sched.Workspace, depth int) (int64, bool) {
	ev := p.envFor(w, depth, 0)
	if !p.c.terminalCond(ev) {
		return 0, false
	}
	return p.c.terminalVal(ev), true
}

// Moves implements sched.Program.
func (p *Program) Moves(w sched.Workspace, depth int) int {
	ev := p.envFor(w, depth, 0)
	n := p.c.movesExpr(ev)
	if n < 0 {
		return 0
	}
	return int(n)
}

// Apply implements sched.Program: run the apply block; a reject restores
// every write and reports the move illegal. The rollback log is kept only
// when a reject can follow a write (Compiled.applyLogs): otherwise a reject
// always finds the cells untouched.
func (p *Program) Apply(w sched.Workspace, depth, m int) bool {
	ev := p.envFor(w, depth, m)
	ev.logging = p.c.applyLogs
	p.c.applyStmts(ev)
	if !ev.rejected {
		return true
	}
	// Roll back in reverse order.
	for i := len(ev.log) - 1; i >= 0; i-- {
		ev.ws[ev.log[i].cell] = ev.log[i].old
	}
	return false
}

// Undo implements sched.Program.
func (p *Program) Undo(w sched.Workspace, depth, m int) {
	ev := p.envFor(w, depth, m)
	p.c.undoStmts(ev)
}
