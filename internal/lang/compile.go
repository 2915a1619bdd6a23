package lang

import "fmt"

// writeRec is one entry of the apply rollback log: a taskprivate cell and
// the value it held. Shared cells never appear here — the compiler rejects
// every write to shared state outside init, and init does not log.
type writeRec struct {
	cell int
	old  int64
}

// env is the evaluation context of one workspace. State is one flat
// []int64 per store — every scalar and array at a fixed offset the compiler
// resolved once (symbol.slot) — so cloning a workspace is one copy.
//
// An env lives inside its workspace and is reused by every call on it
// (Program.envFor resets it in place), which is sound because a workspace
// is taskprivate: exactly one worker evaluates on it at a time. locals and
// log keep their capacity between calls; nothing here is ever cloned.
type env struct {
	ws     []int64 // the taskprivate cells: the payload Clone copies
	shared []int64 // Compiled.sharedProto; read-only outside init
	depth  int64
	m      int64
	locals []int64 // for-loop variables, slot-indexed

	rejected bool
	logging  bool
	log      []writeRec

	// budget, when positive, bounds the total for-loop iterations this env
	// may execute; exceeding it panics with a positioned *Error. The program
	// store sets it when probing untrusted init blocks so a hostile
	// `for i = 0 to 1000000000 {}` cannot pin an API handler; engine
	// execution leaves it zero (unbounded, and branch-free off the hot path
	// for loop-free blocks).
	budget int64
	steps  int64
}

type evalFn func(*env) int64
type execFn func(*env) bool // false = stop (a reject fired)

// symKind classifies resolved names.
type symKind int

const (
	symScalar symKind = iota
	symArray
	symSharedScalar
	symSharedArray
	symParam
	symBuiltinDepth
	symBuiltinMove
)

type symbol struct {
	kind symKind
	slot int   // offset of the scalar, or of the array's first cell, in its store
	val  int64 // for params
	size int   // for arrays
}

// Compiled is an ATC program compiled to closures; lang.Program wraps it
// into a sched.Program.
type Compiled struct {
	name         string
	syms         map[string]*symbol
	cells        int     // taskprivate cells per workspace
	sharedProto  []int64 // built by init; referenced read-only by all runs
	initStmts    execFn
	terminalCond evalFn
	terminalVal  evalFn
	movesExpr    evalFn
	applyStmts   execFn
	undoStmts    execFn
}

type compiler struct {
	syms      map[string]*symbol
	inInit    bool
	inApply   bool
	locals    []string // lexical stack of for-loop variables
	maxLocals int
}

// MaxStateCells bounds the total declared state of one program — scalars
// plus every array cell, taskprivate and shared — at 2^22 int64 cells
// (32 MiB). The limit exists because the compiler allocates the shared
// prototype and the service runs untrusted submissions: without it,
// `state x[999999999999]` is an out-of-memory, not a diagnostic.
const MaxStateCells = 1 << 22

// Compile parses and compiles ATC source. Parameter values may be
// overridden (the mechanism behind "Nqueen-array(16)"-style sizing).
func Compile(name, src string, overrides map[string]int64) (*Compiled, error) {
	f, perr := parse(src)
	if perr != nil {
		return nil, perr
	}
	c := &compiler{syms: map[string]*symbol{}}

	// Parameters: const-fold in declaration order; overrides win.
	for _, pd := range f.params {
		if _, dup := c.syms[pd.name]; dup || pd.name == "depth" || pd.name == "m" {
			return nil, errf(pd.line, 1, "duplicate or reserved name %q", pd.name)
		}
		v, err := c.constEval(pd.value)
		if err != nil {
			return nil, err
		}
		if ov, ok := overrides[pd.name]; ok {
			v = ov
		}
		c.syms[pd.name] = &symbol{kind: symParam, val: v}
	}
	for name := range overrides {
		if s, ok := c.syms[name]; !ok || s.kind != symParam {
			return nil, fmt.Errorf("lang: override for unknown param %q", name)
		}
	}

	// State declarations: each takes the next cells of its store.
	var cells, sharedCells int
	for _, sd := range f.states {
		if _, dup := c.syms[sd.name]; dup || sd.name == "depth" || sd.name == "m" {
			return nil, errf(sd.line, 1, "duplicate or reserved name %q", sd.name)
		}
		sym := &symbol{}
		if sd.size == nil {
			if sd.shared {
				sym.kind, sym.slot = symSharedScalar, sharedCells
				sharedCells++
			} else {
				sym.kind, sym.slot = symScalar, cells
				cells++
			}
		} else {
			n, err := c.constEval(sd.size)
			if err != nil {
				return nil, err
			}
			if n <= 0 {
				return nil, errf(sd.line, 1, "state %s has non-positive size %d", sd.name, n)
			}
			if n > MaxStateCells {
				return nil, errf(sd.line, 1, "state %s size %d exceeds the %d-cell limit", sd.name, n, MaxStateCells)
			}
			if sd.shared {
				sym.kind, sym.slot, sym.size = symSharedArray, sharedCells, int(n)
				sharedCells += int(n)
			} else {
				sym.kind, sym.slot, sym.size = symArray, cells, int(n)
				cells += int(n)
			}
		}
		if cells+sharedCells > MaxStateCells {
			return nil, errf(sd.line, 1, "total state exceeds the %d-cell limit", MaxStateCells)
		}
		c.syms[sd.name] = sym
	}

	out := &Compiled{name: name, syms: c.syms, cells: cells}

	// init block (may write shared state).
	c.inInit = true
	initFn, err := c.compileBlock(f.initBody)
	if err != nil {
		return nil, err
	}
	c.inInit = false
	out.initStmts = initFn

	if out.terminalCond, err = c.compileExpr(f.terminal.cond); err != nil {
		return nil, err
	}
	if out.terminalVal, err = c.compileExpr(f.terminal.value); err != nil {
		return nil, err
	}
	if out.movesExpr, err = c.compileExpr(f.moves); err != nil {
		return nil, err
	}
	c.inApply = true
	if out.applyStmts, err = c.compileBlock(f.apply); err != nil {
		return nil, err
	}
	c.inApply = false
	if out.undoStmts, err = c.compileBlock(f.undo); err != nil {
		return nil, err
	}

	// Build the zeroed shared prototype; NewProgram runs init exactly once
	// to populate it (running it here too would double any read-modify-
	// write the init block performs on shared state).
	out.sharedProto = make([]int64, sharedCells)
	return out, nil
}

// Name returns the name the program was compiled under.
func (p *Compiled) Name() string { return p.name }

// Params returns the program's compile-time parameters and their
// effective (post-override) values — catalog metadata for the program
// store, and the vocabulary a job submission may override per run.
func (p *Compiled) Params() map[string]int64 {
	out := make(map[string]int64)
	for name, s := range p.syms {
		if s.kind == symParam {
			out[name] = s.val
		}
	}
	return out
}

// StateCells returns the total declared state cells (taskprivate plus
// shared): the size driver of per-task clones, reported as metadata.
func (p *Compiled) StateCells() int64 { return int64(p.cells + len(p.sharedProto)) }

// constEval evaluates an expression over parameters only (array sizes,
// parameter initialisers).
func (c *compiler) constEval(e expr) (int64, *Error) {
	switch v := e.(type) {
	case *numLit:
		return v.v, nil
	case *ident:
		if s, ok := c.syms[v.name]; ok && s.kind == symParam {
			return s.val, nil
		}
		return 0, errf(v.line, v.col, "%q is not a compile-time constant", v.name)
	case *unaryExpr:
		x, err := c.constEval(v.operand)
		if err != nil {
			return 0, err
		}
		if v.op == tokMinus {
			return -x, nil
		}
		return b2i(x == 0), nil
	case *binExpr:
		l, err := c.constEval(v.left)
		if err != nil {
			return 0, err
		}
		r, err := c.constEval(v.right)
		if err != nil {
			return 0, err
		}
		return applyBin(v.op, l, r, v.line, v.col)
	}
	line, col := e.pos()
	return 0, errf(line, col, "expression is not a compile-time constant")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func applyBin(op kind, l, r int64, line, col int) (int64, *Error) {
	switch op {
	case tokPlus:
		return l + r, nil
	case tokMinus:
		return l - r, nil
	case tokStar:
		return l * r, nil
	case tokSlash:
		if r == 0 {
			return 0, errf(line, col, "division by zero")
		}
		return l / r, nil
	case tokPercent:
		if r == 0 {
			return 0, errf(line, col, "modulo by zero")
		}
		return l % r, nil
	case tokEq:
		return b2i(l == r), nil
	case tokNeq:
		return b2i(l != r), nil
	case tokLt:
		return b2i(l < r), nil
	case tokLe:
		return b2i(l <= r), nil
	case tokGt:
		return b2i(l > r), nil
	case tokGe:
		return b2i(l >= r), nil
	case tokAnd:
		return b2i(l != 0 && r != 0), nil
	case tokOr:
		return b2i(l != 0 || r != 0), nil
	}
	return 0, errf(line, col, "bad operator")
}

// compileExpr resolves names and returns an evaluator closure.
func (c *compiler) compileExpr(e expr) (evalFn, *Error) {
	switch v := e.(type) {
	case *numLit:
		n := v.v
		return func(*env) int64 { return n }, nil
	case *ident:
		switch v.name {
		case "depth":
			return func(ev *env) int64 { return ev.depth }, nil
		case "m":
			return func(ev *env) int64 { return ev.m }, nil
		}
		for i := len(c.locals) - 1; i >= 0; i-- {
			if c.locals[i] == v.name {
				slot := i
				return func(ev *env) int64 { return ev.locals[slot] }, nil
			}
		}
		s, ok := c.syms[v.name]
		if !ok {
			return nil, errf(v.line, v.col, "undefined name %q", v.name)
		}
		slot := s.slot
		switch s.kind {
		case symParam:
			n := s.val
			return func(*env) int64 { return n }, nil
		case symScalar:
			return func(ev *env) int64 { return ev.ws[slot] }, nil
		case symSharedScalar:
			return func(ev *env) int64 { return ev.shared[slot] }, nil
		default:
			return nil, errf(v.line, v.col, "array %q used without an index", v.name)
		}
	case *indexExpr:
		s, ok := c.syms[v.name]
		if !ok {
			return nil, errf(v.line, v.col, "undefined name %q", v.name)
		}
		idx, err := c.compileExpr(v.index)
		if err != nil {
			return nil, err
		}
		slot, size := s.slot, int64(s.size)
		line, col := v.line, v.col
		switch s.kind {
		case symArray:
			return func(ev *env) int64 {
				i := idx(ev)
				if i < 0 || i >= size {
					panic(errf(line, col, "index %d out of range [0,%d)", i, size))
				}
				return ev.ws[slot+int(i)]
			}, nil
		case symSharedArray:
			return func(ev *env) int64 {
				i := idx(ev)
				if i < 0 || i >= size {
					panic(errf(line, col, "index %d out of range [0,%d)", i, size))
				}
				return ev.shared[slot+int(i)]
			}, nil
		default:
			return nil, errf(v.line, v.col, "%q is not an array", v.name)
		}
	case *unaryExpr:
		sub, err := c.compileExpr(v.operand)
		if err != nil {
			return nil, err
		}
		if v.op == tokMinus {
			return func(ev *env) int64 { return -sub(ev) }, nil
		}
		return func(ev *env) int64 { return b2i(sub(ev) == 0) }, nil
	case *binExpr:
		l, err := c.compileExpr(v.left)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(v.right)
		if err != nil {
			return nil, err
		}
		op, line, col := v.op, v.line, v.col
		switch op {
		case tokAnd:
			return func(ev *env) int64 { return b2i(l(ev) != 0 && r(ev) != 0) }, nil
		case tokOr:
			return func(ev *env) int64 { return b2i(l(ev) != 0 || r(ev) != 0) }, nil
		default:
			return func(ev *env) int64 {
				out, err := applyBin(op, l(ev), r(ev), line, col)
				if err != nil {
					panic(err)
				}
				return out
			}, nil
		}
	}
	line, col := e.pos()
	return nil, errf(line, col, "unsupported expression")
}

// compileBlock compiles statements; the returned closure reports false when
// a reject fired.
func (c *compiler) compileBlock(body []stmt) (execFn, *Error) {
	var fns []execFn
	for _, s := range body {
		fn, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	return func(ev *env) bool {
		for _, fn := range fns {
			if !fn(ev) {
				return false
			}
		}
		return true
	}, nil
}

func (c *compiler) compileStmt(s stmt) (execFn, *Error) {
	switch v := s.(type) {
	case *rejectStmt:
		if !c.inApply {
			return nil, errf(v.line, v.col, "reject is only allowed inside apply")
		}
		return func(ev *env) bool {
			ev.rejected = true
			return false
		}, nil
	case *ifStmt:
		cond, err := c.compileExpr(v.cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compileBlock(v.then)
		if err != nil {
			return nil, err
		}
		alt, err := c.compileBlock(v.alt)
		if err != nil {
			return nil, err
		}
		return func(ev *env) bool {
			if cond(ev) != 0 {
				return then(ev)
			}
			return alt(ev)
		}, nil
	case *forStmt:
		for _, name := range c.locals {
			if name == v.varName {
				return nil, errf(v.line, v.col, "loop variable %q shadows an enclosing loop variable", v.varName)
			}
		}
		if _, clash := c.syms[v.varName]; clash || v.varName == "depth" || v.varName == "m" {
			return nil, errf(v.line, v.col, "loop variable %q shadows an existing name", v.varName)
		}
		lo, err := c.compileExpr(v.lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compileExpr(v.hi)
		if err != nil {
			return nil, err
		}
		slot := len(c.locals)
		c.locals = append(c.locals, v.varName)
		if len(c.locals) > c.maxLocals {
			c.maxLocals = len(c.locals)
		}
		body, err := c.compileBlock(v.body)
		c.locals = c.locals[:len(c.locals)-1]
		if err != nil {
			return nil, err
		}
		fline, fcol := v.line, v.col
		return func(ev *env) bool {
			for len(ev.locals) <= slot {
				ev.locals = append(ev.locals, 0)
			}
			for i := lo(ev); i < hi(ev); i++ {
				if ev.budget > 0 {
					if ev.steps++; ev.steps > ev.budget {
						panic(errf(fline, fcol, "for loop exceeded the %d-iteration evaluation budget", ev.budget))
					}
				}
				ev.locals[slot] = i
				if !body(ev) {
					return false
				}
			}
			return true
		}, nil
	case *assignStmt:
		for _, name := range c.locals {
			if name == v.target {
				return nil, errf(v.line, v.col, "cannot assign to loop variable %q", v.target)
			}
		}
		sym, ok := c.syms[v.target]
		if !ok {
			if v.target == "depth" || v.target == "m" {
				return nil, errf(v.line, v.col, "cannot assign to builtin %q", v.target)
			}
			return nil, errf(v.line, v.col, "undefined name %q", v.target)
		}
		if sym.kind == symParam {
			return nil, errf(v.line, v.col, "cannot assign to param %q", v.target)
		}
		shared := sym.kind == symSharedScalar || sym.kind == symSharedArray
		if shared && !c.inInit {
			return nil, errf(v.line, v.col, "shared state %q may only be written in init (it is not cloned for tasks)", v.target)
		}
		val, err := c.compileExpr(v.value)
		if err != nil {
			return nil, err
		}
		slot := sym.slot
		switch sym.kind {
		case symScalar, symSharedScalar:
			if v.index != nil {
				return nil, errf(v.line, v.col, "%q is a scalar, not an array", v.target)
			}
			return func(ev *env) bool {
				st := ev.ws
				if shared {
					st = ev.shared
				}
				if ev.logging {
					ev.log = append(ev.log, writeRec{cell: slot, old: st[slot]})
				}
				st[slot] = val(ev)
				return true
			}, nil
		case symArray, symSharedArray:
			if v.index == nil {
				return nil, errf(v.line, v.col, "array %q assigned without an index", v.target)
			}
			idx, err := c.compileExpr(v.index)
			if err != nil {
				return nil, err
			}
			size := int64(sym.size)
			line, col := v.line, v.col
			return func(ev *env) bool {
				st := ev.ws
				if shared {
					st = ev.shared
				}
				i := idx(ev)
				if i < 0 || i >= size {
					panic(errf(line, col, "index %d out of range [0,%d)", i, size))
				}
				cell := slot + int(i)
				if ev.logging {
					ev.log = append(ev.log, writeRec{cell: cell, old: st[cell]})
				}
				st[cell] = val(ev)
				return true
			}, nil
		}
	}
	line, col := s.stmtPos()
	return nil, errf(line, col, "unsupported statement")
}
