package lang

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adaptivetc/internal/sched"
)

// The reference evaluator: a plain walk over the AST, with the storage
// layout the compiler resolved (symbol slots and sizes) and nothing else of
// it. It always logs apply's writes and rolls them back on reject, folds
// nothing and checks every division, so any specialisation of the closure
// compiler that changes a value, a cell or a fault shows up as a difference.

// refTooLong stops a reference call that runs more loop iterations than a
// differential check can afford; the compiled program is then not called.
type refTooLong struct{}

const refStepLimit = 1 << 14

type refEval struct {
	syms   map[string]*symbol
	f      *file
	shared []int64
}

// refRun is the state of one reference call.
type refRun struct {
	*refEval
	ws       []int64
	depth, m int64
	locals   map[string]int64
	logging  bool
	log      []writeRec
	budget   int64 // the guarded init's budget; 0 = unbounded
	steps    int64
}

func (r *refRun) store(s *symbol) []int64 {
	if s.kind == symSharedScalar || s.kind == symSharedArray {
		return r.shared
	}
	return r.ws
}

func (r *refRun) expr(e expr) int64 {
	switch v := e.(type) {
	case *numLit:
		return v.v
	case *ident:
		switch v.name {
		case "depth":
			return r.depth
		case "m":
			return r.m
		}
		if x, ok := r.locals[v.name]; ok {
			return x
		}
		s := r.syms[v.name]
		if s.kind == symParam {
			return s.val
		}
		return r.store(s)[s.slot]
	case *indexExpr:
		s := r.syms[v.name]
		i := r.expr(v.index)
		if i < 0 || i >= int64(s.size) {
			panic(errf(v.line, v.col, "index %d out of range [0,%d)", i, s.size))
		}
		return r.store(s)[s.slot+int(i)]
	case *unaryExpr:
		x := r.expr(v.operand)
		if v.op == tokMinus {
			return -x
		}
		return b2i(x == 0)
	case *binExpr:
		switch v.op {
		case tokAnd:
			return b2i(r.expr(v.left) != 0 && r.expr(v.right) != 0)
		case tokOr:
			return b2i(r.expr(v.left) != 0 || r.expr(v.right) != 0)
		}
		x, y := r.expr(v.left), r.expr(v.right)
		switch v.op {
		case tokPlus:
			return x + y
		case tokMinus:
			return x - y
		case tokStar:
			return x * y
		case tokSlash:
			if y == 0 {
				panic(errf(v.line, v.col, "division by zero"))
			}
			return x / y
		case tokPercent:
			if y == 0 {
				panic(errf(v.line, v.col, "modulo by zero"))
			}
			return x % y
		case tokEq:
			return b2i(x == y)
		case tokNeq:
			return b2i(x != y)
		case tokLt:
			return b2i(x < y)
		case tokLe:
			return b2i(x <= y)
		case tokGt:
			return b2i(x > y)
		case tokGe:
			return b2i(x >= y)
		}
	}
	panic(fmt.Sprintf("reference: unhandled expression %T", e))
}

// block runs statements and reports false when a reject fired.
func (r *refRun) block(body []stmt) bool {
	for _, s := range body {
		switch v := s.(type) {
		case *rejectStmt:
			return false
		case *ifStmt:
			b := v.alt
			if r.expr(v.cond) != 0 {
				b = v.then
			}
			if !r.block(b) {
				return false
			}
		case *forStmt:
			ok := true
			for i := r.expr(v.lo); i < r.expr(v.hi); i++ {
				r.steps++
				if r.budget > 0 && r.steps > r.budget {
					panic(errf(v.line, v.col, "for loop exceeded the %d-iteration evaluation budget", r.budget))
				}
				if r.steps > refStepLimit {
					panic(refTooLong{})
				}
				r.locals[v.varName] = i
				if ok = r.block(v.body); !ok {
					break
				}
			}
			delete(r.locals, v.varName)
			if !ok {
				return false
			}
		case *assignStmt:
			s := r.syms[v.target]
			st, cell := r.store(s), s.slot
			if v.index != nil {
				i := r.expr(v.index)
				if i < 0 || i >= int64(s.size) {
					panic(errf(v.line, v.col, "index %d out of range [0,%d)", i, s.size))
				}
				cell += int(i)
			}
			x := r.expr(v.value)
			if r.logging {
				r.log = append(r.log, writeRec{cell: cell, old: st[cell]})
			}
			st[cell] = x
		}
	}
	return true
}

func (e *refEval) run(ws []int64, depth, m int) *refRun {
	return &refRun{refEval: e, ws: ws, depth: int64(depth), m: int64(m), locals: map[string]int64{}}
}

func (e *refEval) terminal(ws []int64, depth int) (int64, bool) {
	r := e.run(ws, depth, 0)
	if r.expr(e.f.terminal.cond) == 0 {
		return 0, false
	}
	return r.expr(e.f.terminal.value), true
}

func (e *refEval) moves(ws []int64, depth int) int {
	return int(max(e.run(ws, depth, 0).expr(e.f.moves), 0))
}

func (e *refEval) apply(ws []int64, depth, m int) bool {
	r := e.run(ws, depth, m)
	r.logging = true
	if r.block(e.f.apply) {
		return true
	}
	for i := len(r.log) - 1; i >= 0; i-- {
		ws[r.log[i].cell] = r.log[i].old
	}
	return false
}

func (e *refEval) undo(ws []int64, depth, m int) { e.run(ws, depth, m).block(e.f.undo) }

// outcome runs f and names how it ended: "" when it returned, the positioned
// message of an *Error it panicked with, "too long" for refTooLong.
func outcome(f func()) (msg string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *Error:
			msg = r.Error()
		case refTooLong:
			msg = "too long"
		default:
			msg = fmt.Sprintf("unpositioned panic: %v", r)
		}
	}()
	f()
	return ""
}

// evalWalk drives the compiled program and the reference side by side over
// the first moves of the first levels of the tree.
type evalWalk struct {
	t     *testing.T
	src   string
	p     *Program
	ref   *refEval
	ws    sched.Workspace
	rws   []int64
	calls int
	done  bool // the call budget is spent, or the reference ran too long
}

const (
	evalMaxDepth = 7
	evalMaxMoves = 5
	evalMaxCalls = 400
)

// step runs one call on both sides and compares the results, the cells
// afterwards and the fault. It reports whether the call returned. After a
// fault both sides hold the same partly written cells, and the walk goes on
// from there: it compares two evaluators, not a program's meaning.
func (w *evalWalk) step(what string, depth, m int, compiled, ref func() any) bool {
	if w.done {
		return false
	}
	w.calls++
	w.done = w.calls == evalMaxCalls
	var want, got any
	refMsg := outcome(func() { want = ref() })
	if refMsg == "too long" {
		w.done = true
		return false
	}
	msg := outcome(func() { got = compiled() })
	cells := w.ws.(*workspace).ev.ws
	if msg != refMsg || got != want || !slices.Equal(cells, w.rws) {
		w.t.Fatalf("%s(depth %d, m %d): compiled %v %q cells %v; reference %v %q cells %v\nsource:\n%s",
			what, depth, m, got, msg, cells, want, refMsg, w.rws, w.src)
	}
	return msg == ""
}

func (w *evalWalk) node(depth int) {
	var term bool
	if !w.step("Terminal", depth, 0,
		func() any { v, t := w.p.Terminal(w.ws, depth); term = t; return [2]any{v, t} },
		func() any { v, t := w.ref.terminal(w.rws, depth); return [2]any{v, t} }) ||
		term || depth == evalMaxDepth {
		return
	}
	var n int
	if !w.step("Moves", depth, 0,
		func() any { n = w.p.Moves(w.ws, depth); return n },
		func() any { return w.ref.moves(w.rws, depth) }) {
		return
	}
	for m := 0; m < min(n, evalMaxMoves) && !w.done; m++ {
		var ok bool
		if !w.step("Apply", depth, m,
			func() any { ok = w.p.Apply(w.ws, depth, m); return ok },
			func() any { return w.ref.apply(w.rws, depth, m) }) || !ok {
			continue
		}
		w.node(depth + 1)
		w.step("Undo", depth, m,
			func() any { w.p.Undo(w.ws, depth, m); return nil },
			func() any { w.ref.undo(w.rws, depth, m); return nil })
	}
}

// evalInitBudget is the guarded init's loop budget in the differential
// check; below refStepLimit, so an init that runs too long faults on both
// sides with the budget message.
const evalInitBudget = 1 << 12

// diffEval compiles src and, if it compiles to at most 4 096 cells, checks
// the guarded init and a bounded walk against the reference evaluator.
func diffEval(t *testing.T, src string) {
	c, err := Compile("eval", src, nil)
	if err != nil || c.StateCells() > 1<<12 {
		return
	}
	f, perr := parse(src)
	if perr != nil {
		t.Fatalf("source compiled but does not parse: %v", perr)
	}
	ref := &refEval{syms: c.syms, f: f, shared: make([]int64, len(c.sharedProto))}
	root := make([]int64, c.cells)
	refMsg := outcome(func() {
		r := ref.run(root, 0, 0)
		r.budget = evalInitBudget
		r.block(f.initBody)
	})
	var p *Program
	msg := outcome(func() {
		var gerr error
		if p, gerr = NewProgramGuarded(c, evalInitBudget); gerr != nil {
			panic(gerr)
		}
	})
	if msg != refMsg {
		t.Fatalf("init: compiled %q, reference %q\nsource:\n%s", msg, refMsg, src)
	}
	if msg != "" {
		return
	}
	if !slices.Equal(p.wsProto.ev.ws, root) || !slices.Equal(c.sharedProto, ref.shared) {
		t.Fatalf("init: compiled cells %v shared %v, reference %v shared %v\nsource:\n%s",
			p.wsProto.ev.ws, c.sharedProto, root, ref.shared, src)
	}
	w := &evalWalk{t: t, src: src, p: p, ref: ref, ws: p.Root(), rws: slices.Clone(root)}
	w.node(0)
}

// evalMutants are hand mutations of the shipped sources: writes ahead of
// the rejects (so apply must log), an index that leaves its array, a
// division and a modulo by zero, and affine indices in unusual spellings.
var evalMutants = [][3]string{
	{"nqueens", "apply {\n    if cols[m]", "apply {\n    x[depth] = m + 1\n    if cols[m]"},
	{"nqueens", "d2[depth - m + n - 1] != 0", "d2[depth - m + n] != 0"},
	{"nqueens", "param n = 8", "param n = 5"},
	{"nqueens", "d1[depth + m] = 1", "d1[-(-m - depth)] = 1"},
	{"nqueens", "d2[depth - m + n - 1] = 1", "d2[2 * (n - 1) - (n - 1 - depth) - m] = 1"},
	{"latin", "(depth % n) * n + m] != 0", "(depth % (n - 4)) * n + m] != 0"},
	{"latin", "grid[depth] = m + 1", "grid[depth] = (m + 1) / (depth - 3)"},
	{"fib", "stack[sp] - 1 - m", "stack[sp] - 1 - m * (0 - 1) * (0 - 1)"},
	{"fib", "param n = 20", "param n = 9"},
	{"knight", "param n = 5", "param n = 3"},
	{"knight", "visited[path[depth + 1]] = 1", "visited[path[depth + 1]] = 1\n    if m == 7 { reject }"},
}

// genEvalSource writes a program from a small grammar: every operator,
// affine indices in many spellings, constant and run-time divisors, and
// apply blocks that reject before, after and inside loops around writes.
func genEvalSource(rng *rand.Rand) string {
	g := &evalGen{rng: rng}
	var b strings.Builder
	n := 3 + rng.Intn(3)
	fmt.Fprintf(&b, "param n = %d\nparam k = n + %d\n", n, rng.Intn(3))
	b.WriteString("state a[3 * n + 2]\nstate b[4 * n]\nstate s\nstate u\nstate t[4] shared\n")
	fmt.Fprintf(&b, "init {\n    for i = 0 to 4 { t[i] = (i * %d + %d) %% 5 }\n    s = %d\n",
		1+rng.Intn(4), rng.Intn(5), rng.Intn(4))
	if rng.Intn(4) == 0 {
		fmt.Fprintf(&b, "    a[%s] = %s\n", g.index(), g.expr(2))
	}
	b.WriteString("}\n")
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "terminal depth >= %d -> %s\n", 2+rng.Intn(5), g.expr(2))
	} else {
		fmt.Fprintf(&b, "terminal depth >= %d || %s > 5 -> %s\n", 2+rng.Intn(5), g.expr(2), g.expr(2))
	}
	moves := []string{"n", "3", "depth % 3 + 1", "3 - depth", "(" + g.expr(1) + ") % 2 + 2"}
	fmt.Fprintf(&b, "moves %s\n", moves[rng.Intn(len(moves))])
	b.WriteString("apply {\n")
	for i := 1 + rng.Intn(4); i > 0; i-- {
		g.stmt(&b, "    ", 2, true)
	}
	b.WriteString("}\nundo {\n")
	for i := rng.Intn(3); i > 0; i-- {
		g.assign(&b, "    ")
	}
	b.WriteString("}\n")
	return b.String()
}

type evalGen struct {
	rng    *rand.Rand
	locals []string
}

var evalOps = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

func (g *evalGen) expr(d int) string {
	r := g.rng
	if d <= 0 || r.Intn(3) == 0 {
		leaves := []string{"0", "1", "2", "7", "depth", "m", "n", "k", "s", "u"}
		leaves = append(leaves, g.locals...)
		switch r.Intn(5) {
		case 0:
			return "a[" + g.index() + "]"
		case 1:
			return []string{"b", "t"}[r.Intn(2)] + "[" + g.index() + "]"
		}
		return leaves[r.Intn(len(leaves))]
	}
	switch r.Intn(6) {
	case 0:
		return "-" + g.expr(d-1)
	case 1:
		return "!" + g.expr(d-1)
	}
	return "(" + g.expr(d-1) + " " + evalOps[r.Intn(len(evalOps))] + " " + g.expr(d-1) + ")"
}

// index is usually affine in depth and m, sometimes not at all.
func (g *evalGen) index() string {
	r := g.rng
	term := func(v string) string {
		switch c := r.Intn(5) - 2; c {
		case 0:
			return "0"
		case 1:
			return v
		case -1:
			return "-" + v
		default:
			if r.Intn(2) == 0 {
				return fmt.Sprintf("%d * %s", c, v)
			}
			return fmt.Sprintf("%s * (%d)", v, c)
		}
	}
	switch r.Intn(6) {
	case 0:
		return "s % n"
	case 1:
		return g.expr(1) + " % (n + 1)"
	case 2:
		return fmt.Sprintf("n - 1 - (%s - %s)", term("m"), term("depth"))
	case 3:
		return fmt.Sprintf("%d * (depth + m) - %s", r.Intn(3), term("depth"))
	}
	return fmt.Sprintf("%s + %s - %d + k", term("depth"), term("m"), r.Intn(4))
}

func (g *evalGen) assign(b *strings.Builder, ind string) {
	r := g.rng
	switch r.Intn(4) {
	case 0:
		fmt.Fprintf(b, "%s%s = %s\n", ind, []string{"s", "u"}[r.Intn(2)], g.expr(2))
	case 1:
		fmt.Fprintf(b, "%sb[%s] = %s\n", ind, g.index(), g.expr(2))
	default:
		fmt.Fprintf(b, "%sa[%s] = %s\n", ind, g.index(), g.expr(2))
	}
}

func (g *evalGen) stmt(b *strings.Builder, ind string, d int, inApply bool) {
	r := g.rng
	switch c := r.Intn(6); {
	case c == 0 && inApply:
		fmt.Fprintf(b, "%sif %s { reject }\n", ind, g.expr(2))
	case c == 1 && d > 0:
		fmt.Fprintf(b, "%sif %s {\n", ind, g.expr(2))
		g.stmt(b, ind+"    ", d-1, inApply)
		fmt.Fprintf(b, "%s} else {\n", ind)
		g.stmt(b, ind+"    ", d-1, inApply)
		fmt.Fprintf(b, "%s}\n", ind)
	case c == 2 && d > 0:
		v := fmt.Sprintf("i%d", len(g.locals))
		fmt.Fprintf(b, "%sfor %s = %s to %s {\n", ind, v, []string{"0", "m", "depth - 1"}[r.Intn(3)], []string{"n", "depth", "3", "u % 4"}[r.Intn(4)])
		g.locals = append(g.locals, v)
		g.stmt(b, ind+"    ", d-1, inApply)
		if inApply && r.Intn(2) == 0 {
			fmt.Fprintf(b, "%s    if %s == m { reject }\n", ind, v)
		}
		g.locals = g.locals[:len(g.locals)-1]
		fmt.Fprintf(b, "%s}\n", ind)
	default:
		g.assign(b, ind)
	}
}

// evalGrammarSeeds is how many grammar programs seed the corpus.
const evalGrammarSeeds = 64

// FuzzLangEval checks the compiled closures against the reference
// evaluator: the guarded init, then every Terminal, Moves, Apply and Undo
// of a bounded walk must agree on the result, on the cells afterwards and
// on the fault (an index out of range, a division or modulo by zero, the
// init's loop budget). The seeds are the shipped sources, hand mutations
// of them and programs from a small expression grammar; the grammar's
// programs must compile, so the corpus cannot quietly go empty.
func FuzzLangEval(f *testing.F) {
	srcs := Sources()
	for _, name := range []string{"nqueens", "fib", "latin", "knight"} {
		f.Add(srcs[name])
	}
	for _, mu := range evalMutants {
		src := srcs[mu[0]]
		if !strings.Contains(src, mu[1]) {
			f.Fatalf("mutant of %s: %q is not in the source", mu[0], mu[1])
		}
		f.Add(strings.Replace(src, mu[1], mu[2], 1))
	}
	for _, lc := range logCases {
		f.Add(logCaseSrc(lc.apply))
	}
	rng := rand.New(rand.NewSource(20100424))
	for i := 0; i < evalGrammarSeeds; i++ {
		src := genEvalSource(rng)
		if _, err := Compile("gen", src, nil); err != nil {
			f.Fatalf("grammar program does not compile: %v\n%s", err, src)
		}
		f.Add(src)
	}
	f.Fuzz(diffEval)
}
