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
type condFn func(*env) bool // a condition, evaluated without the 0/1 detour
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
	terminalCond condFn
	terminalVal  evalFn
	movesExpr    evalFn
	applyStmts   execFn
	undoStmts    execFn
	// applyLogs is true when some reject in apply can run after a write
	// there (rejectCanFollowWrite); only then does Apply keep a rollback log.
	applyLogs bool
}

type compiler struct {
	syms    map[string]*symbol
	inInit  bool
	inApply bool
	locals  []string // lexical stack of for-loop variables
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

	cond, err := c.compileOperand(f.terminal.cond)
	if err != nil {
		return nil, err
	}
	out.terminalCond = cond.truth()
	if out.terminalVal, err = c.compileExpr(f.terminal.value); err != nil {
		return nil, err
	}
	if out.movesExpr, err = c.compileExpr(f.moves); err != nil {
		return nil, err
	}
	out.applyLogs, _ = rejectCanFollowWrite(f.apply, false)
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
// parameter initialisers). Run-time expressions fold the same subtrees
// bottom-up in compileOperand.
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

// operand is a compiled expression and what the compiler knows of its
// value. fn is always set. konst: the value is k, folded at compile time,
// which happens only where evaluating the subtree cannot fault (applyBin
// succeeds), so `x / 0` still panics at run time. affine: the value is
// cd·depth + cm·m + k, and an index of that shape is read from ev.depth and
// ev.m directly; a constant is affine with cd = cm = 0. The arithmetic is
// mod 2⁶⁴ like Go's, so the reassociated form gives identical values even
// on overflow. cond, when set, evaluates a comparison, &&, || or ! as a
// truth value without the 0/1 detour. cell, when set, is a taskprivate
// array read at an affine index, which a test against a constant fuses
// into one closure.
type operand struct {
	fn        evalFn
	cond      condFn
	cell      *cellRead
	konst     bool
	affine    bool
	cd, cm, k int64
}

// cellRead is ws[slot + cd·depth + cm·m + k], bounds-checked against size.
type cellRead struct {
	slot      int
	size      int64
	cd, cm, k int64
	line, col int
}

func constant(k int64) operand {
	return operand{fn: func(*env) int64 { return k }, konst: true, affine: true, k: k}
}

func affine(cd, cm, k int64) operand {
	if cd == 0 && cm == 0 {
		return constant(k)
	}
	o := operand{affine: true, cd: cd, cm: cm, k: k}
	switch {
	case cd == 1 && cm == 0:
		o.fn = func(ev *env) int64 { return ev.depth + k }
	case cd == 0 && cm == 1:
		o.fn = func(ev *env) int64 { return ev.m + k }
	default:
		o.fn = func(ev *env) int64 { return cd*ev.depth + cm*ev.m + k }
	}
	return o
}

func boolean(cond condFn) operand {
	return operand{fn: func(ev *env) int64 { return b2i(cond(ev)) }, cond: cond}
}

// truth returns o as a condition: nonzero is true.
func (o operand) truth() condFn {
	switch {
	case o.cond != nil:
		return o.cond
	case o.konst:
		b := o.k != 0
		return func(*env) bool { return b }
	}
	fn := o.fn
	return func(ev *env) bool { return fn(ev) != 0 }
}

// outOfRange is the positioned fault of an index outside [0,size).
func outOfRange(line, col int, i, size int64) *Error {
	return errf(line, col, "index %d out of range [0,%d)", i, size)
}

// compileExpr resolves names and returns an evaluator closure.
func (c *compiler) compileExpr(e expr) (evalFn, *Error) {
	o, err := c.compileOperand(e)
	return o.fn, err
}

// compileOperand compiles e bottom-up, returning the closure specialised to
// e's shape: a constant, an affine form, a direct cell read, or one closure
// per operator with a variant for a constant right operand.
func (c *compiler) compileOperand(e expr) (operand, *Error) {
	switch v := e.(type) {
	case *numLit:
		return constant(v.v), nil
	case *ident:
		switch v.name {
		case "depth":
			return affine(1, 0, 0), nil
		case "m":
			return affine(0, 1, 0), nil
		}
		for i := len(c.locals) - 1; i >= 0; i-- {
			if c.locals[i] == v.name {
				slot := i
				return operand{fn: func(ev *env) int64 { return ev.locals[slot] }}, nil
			}
		}
		s, ok := c.syms[v.name]
		if !ok {
			return operand{}, errf(v.line, v.col, "undefined name %q", v.name)
		}
		slot := s.slot
		switch s.kind {
		case symParam:
			return constant(s.val), nil
		case symScalar:
			return operand{fn: func(ev *env) int64 { return ev.ws[slot] }}, nil
		case symSharedScalar:
			return operand{fn: func(ev *env) int64 { return ev.shared[slot] }}, nil
		default:
			return operand{}, errf(v.line, v.col, "array %q used without an index", v.name)
		}
	case *indexExpr:
		return c.compileIndex(v)
	case *unaryExpr:
		sub, err := c.compileOperand(v.operand)
		if err != nil {
			return operand{}, err
		}
		if v.op == tokMinus {
			if sub.affine {
				return affine(-sub.cd, -sub.cm, -sub.k), nil
			}
			fn := sub.fn
			return operand{fn: func(ev *env) int64 { return -fn(ev) }}, nil
		}
		if sub.konst {
			return constant(b2i(sub.k == 0)), nil
		}
		cond := sub.truth()
		return boolean(func(ev *env) bool { return !cond(ev) }), nil
	case *binExpr:
		l, err := c.compileOperand(v.left)
		if err != nil {
			return operand{}, err
		}
		r, err := c.compileOperand(v.right)
		if err != nil {
			return operand{}, err
		}
		return binary(v.op, l, r, v.line, v.col), nil
	}
	line, col := e.pos()
	return operand{}, errf(line, col, "unsupported expression")
}

// binary combines two compiled operands under op.
func binary(op kind, l, r operand, line, col int) operand {
	if l.konst && r.konst {
		if k, err := applyBin(op, l.k, r.k, line, col); err == nil {
			return constant(k)
		}
	}
	switch op {
	case tokPlus:
		if l.affine && r.affine {
			return affine(l.cd+r.cd, l.cm+r.cm, l.k+r.k)
		}
	case tokMinus:
		if l.affine && r.affine {
			return affine(l.cd-r.cd, l.cm-r.cm, l.k-r.k)
		}
	case tokStar:
		if l.konst && r.affine {
			return affine(l.k*r.cd, l.k*r.cm, l.k*r.k)
		}
		if r.konst && l.affine {
			return affine(r.k*l.cd, r.k*l.cm, r.k*l.k)
		}
	case tokAnd:
		a, b := l.truth(), r.truth()
		return boolean(func(ev *env) bool { return a(ev) && b(ev) })
	case tokOr:
		a, b := l.truth(), r.truth()
		return boolean(func(ev *env) bool { return a(ev) || b(ev) })
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		return boolean(compare(op, l, r))
	}
	return operand{fn: arith(op, l, r, line, col)}
}

// mirror is the comparison that holds with its operands swapped.
var mirror = map[kind]kind{tokEq: tokEq, tokNeq: tokNeq, tokLt: tokGt, tokLe: tokGe, tokGt: tokLt, tokGe: tokLe}

// compare is one closure per comparison, with a variant for a constant
// operand (a constant left one is mirrored to the right: it cannot fault,
// so evaluation order does not matter).
func compare(op kind, l, r operand) condFn {
	if l.konst && !r.konst {
		op, l, r = mirror[op], r, l
	}
	a, b := l.fn, r.fn
	if c := l.cell; c != nil && r.konst && (op == tokEq || op == tokNeq) {
		slot, size, cd, cm, k, line, col := c.slot, c.size, c.cd, c.cm, c.k, c.line, c.col
		want, eq := r.k, op == tokEq
		return func(ev *env) bool {
			i := cd*ev.depth + cm*ev.m + k
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			return (ev.ws[slot+int(i)] == want) == eq
		}
	}
	if r.konst {
		k := r.k
		switch op {
		case tokEq:
			return func(ev *env) bool { return a(ev) == k }
		case tokNeq:
			return func(ev *env) bool { return a(ev) != k }
		case tokLt:
			return func(ev *env) bool { return a(ev) < k }
		case tokLe:
			return func(ev *env) bool { return a(ev) <= k }
		case tokGt:
			return func(ev *env) bool { return a(ev) > k }
		default:
			return func(ev *env) bool { return a(ev) >= k }
		}
	}
	switch op {
	case tokEq:
		return func(ev *env) bool { return a(ev) == b(ev) }
	case tokNeq:
		return func(ev *env) bool { return a(ev) != b(ev) }
	case tokLt:
		return func(ev *env) bool { return a(ev) < b(ev) }
	case tokLe:
		return func(ev *env) bool { return a(ev) <= b(ev) }
	case tokGt:
		return func(ev *env) bool { return a(ev) > b(ev) }
	default:
		return func(ev *env) bool { return a(ev) >= b(ev) }
	}
}

// arith is one closure per arithmetic operator. A constant right operand
// gets its own variant; / and % by a nonzero constant skip the zero test.
// Both operands are evaluated, left first, before the zero test, as the
// fault order of the source requires.
func arith(op kind, l, r operand, line, col int) evalFn {
	a, b := l.fn, r.fn
	if r.konst && r.k != 0 {
		k := r.k
		switch op {
		case tokPlus:
			return func(ev *env) int64 { return a(ev) + k }
		case tokMinus:
			return func(ev *env) int64 { return a(ev) - k }
		case tokStar:
			return func(ev *env) int64 { return a(ev) * k }
		case tokSlash:
			return func(ev *env) int64 { return a(ev) / k }
		case tokPercent:
			return func(ev *env) int64 { return a(ev) % k }
		}
	}
	switch op {
	case tokPlus:
		return func(ev *env) int64 { return a(ev) + b(ev) }
	case tokMinus:
		return func(ev *env) int64 { return a(ev) - b(ev) }
	case tokStar:
		return func(ev *env) int64 { return a(ev) * b(ev) }
	case tokSlash:
		return func(ev *env) int64 {
			x, y := a(ev), b(ev)
			if y == 0 {
				panic(errf(line, col, "division by zero"))
			}
			return x / y
		}
	default: // tokPercent
		return func(ev *env) int64 {
			x, y := a(ev), b(ev)
			if y == 0 {
				panic(errf(line, col, "modulo by zero"))
			}
			return x % y
		}
	}
}

// compileIndex compiles an array read. An affine index is computed from
// ev.depth and ev.m in the read itself; any other index is one call.
func (c *compiler) compileIndex(v *indexExpr) (operand, *Error) {
	s, ok := c.syms[v.name]
	if !ok {
		return operand{}, errf(v.line, v.col, "undefined name %q", v.name)
	}
	idx, err := c.compileOperand(v.index)
	if err != nil {
		return operand{}, err
	}
	slot, size := s.slot, int64(s.size)
	line, col := v.line, v.col
	cd, cm, k, fn := idx.cd, idx.cm, idx.k, idx.fn
	switch {
	case s.kind == symArray && idx.affine:
		return operand{fn: func(ev *env) int64 {
			i := cd*ev.depth + cm*ev.m + k
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			return ev.ws[slot+int(i)]
		}, cell: &cellRead{slot, size, cd, cm, k, line, col}}, nil
	case s.kind == symArray:
		return operand{fn: func(ev *env) int64 {
			i := fn(ev)
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			return ev.ws[slot+int(i)]
		}}, nil
	case s.kind == symSharedArray && idx.affine:
		return operand{fn: func(ev *env) int64 {
			i := cd*ev.depth + cm*ev.m + k
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			return ev.shared[slot+int(i)]
		}}, nil
	case s.kind == symSharedArray:
		return operand{fn: func(ev *env) int64 {
			i := fn(ev)
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			return ev.shared[slot+int(i)]
		}}, nil
	}
	return operand{}, errf(v.line, v.col, "%q is not an array", v.name)
}

// rejectCanFollowWrite reports whether running body can execute a reject
// after an assignment, given whether one may already have run (wrote), and
// whether one may have run by the end of body. A loop body is walked twice:
// the second pass sees the writes of an earlier iteration. Only such a
// reject has anything to roll back, so only then does Apply log its writes.
func rejectCanFollowWrite(body []stmt, wrote bool) (bool, bool) {
	for _, s := range body {
		switch v := s.(type) {
		case *assignStmt:
			wrote = true
		case *rejectStmt:
			if wrote {
				return true, true
			}
		case *ifStmt:
			nt, wt := rejectCanFollowWrite(v.then, wrote)
			na, wa := rejectCanFollowWrite(v.alt, wrote)
			if nt || na {
				return true, true
			}
			wrote = wt || wa
		case *forStmt:
			n1, w1 := rejectCanFollowWrite(v.body, wrote)
			n2, _ := rejectCanFollowWrite(v.body, w1)
			if n1 || n2 {
				return true, true
			}
			wrote = w1
		}
	}
	return false, wrote
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
	switch len(fns) {
	case 0:
		return func(*env) bool { return true }, nil
	case 1:
		return fns[0], nil
	case 2:
		a, b := fns[0], fns[1]
		return func(ev *env) bool { return a(ev) && b(ev) }, nil
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
		cond, err := c.compileOperand(v.cond)
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
		test := cond.truth()
		if len(v.alt) == 0 {
			return func(ev *env) bool {
				if test(ev) {
					return then(ev)
				}
				return true
			}, nil
		}
		return func(ev *env) bool {
			if test(ev) {
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
		return c.compileAssign(v)
	}
	line, col := s.stmtPos()
	return nil, errf(line, col, "unsupported statement")
}

// compileAssign splits writes at compile time: shared state (init only,
// never logged) and taskprivate state, whose writes log the old value while
// ev.logging is set. A taskprivate array write with an affine index
// computes the cell from ev.depth and ev.m itself. The index is evaluated
// and bounds-checked before the value, as in the source's fault order.
func (c *compiler) compileAssign(v *assignStmt) (execFn, *Error) {
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
	if sym.kind == symScalar || sym.kind == symSharedScalar {
		if v.index != nil {
			return nil, errf(v.line, v.col, "%q is a scalar, not an array", v.target)
		}
		if shared {
			return func(ev *env) bool {
				ev.shared[slot] = val(ev)
				return true
			}, nil
		}
		return func(ev *env) bool {
			if ev.logging {
				ev.log = append(ev.log, writeRec{cell: slot, old: ev.ws[slot]})
			}
			ev.ws[slot] = val(ev)
			return true
		}, nil
	}
	if v.index == nil {
		return nil, errf(v.line, v.col, "array %q assigned without an index", v.target)
	}
	idx, err := c.compileOperand(v.index)
	if err != nil {
		return nil, err
	}
	size := int64(sym.size)
	line, col := v.line, v.col
	cd, cm, k, fn := idx.cd, idx.cm, idx.k, idx.fn
	switch {
	case shared:
		return func(ev *env) bool {
			i := fn(ev)
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			ev.shared[slot+int(i)] = val(ev)
			return true
		}, nil
	case idx.affine:
		return func(ev *env) bool {
			i := cd*ev.depth + cm*ev.m + k
			if uint64(i) >= uint64(size) {
				panic(outOfRange(line, col, i, size))
			}
			cell := slot + int(i)
			if ev.logging {
				ev.log = append(ev.log, writeRec{cell: cell, old: ev.ws[cell]})
			}
			ev.ws[cell] = val(ev)
			return true
		}, nil
	}
	return func(ev *env) bool {
		i := fn(ev)
		if uint64(i) >= uint64(size) {
			panic(outOfRange(line, col, i, size))
		}
		cell := slot + int(i)
		if ev.logging {
			ev.log = append(ev.log, writeRec{cell: cell, old: ev.ws[cell]})
		}
		ev.ws[cell] = val(ev)
		return true
	}, nil
}
