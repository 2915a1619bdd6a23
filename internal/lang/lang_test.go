package lang

import (
	"strings"
	"testing"

	"adaptivetc/internal/progtest"
	"adaptivetc/internal/sched"
)

func compileT(t *testing.T, src string, overrides map[string]int64) *Program {
	t.Helper()
	p, err := CompileProgram("test", src, overrides)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func serialValue(t *testing.T, p sched.Program) int64 {
	t.Helper()
	res, err := sched.Serial{}.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll("param x = 12 # comment\nif a[i] >= 3 && !b { reject }")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]kind, 0, len(toks))
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []kind{tokParam, tokIdent, tokAssign, tokNumber, tokIf, tokIdent,
		tokLBracket, tokIdent, tokRBracket, tokGe, tokNumber, tokAnd, tokNot,
		tokIdent, tokLBrace, tokReject, tokRBrace, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"a & b", "a | b", "@", "99999999999999999999999999"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) accepted bad input", src)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := map[string]string{
		"missing terminal":  "moves 2 apply {} undo {}",
		"missing moves":     "terminal 1 -> 1 apply {} undo {}",
		"missing apply":     "terminal 1 -> 1 moves 2 undo {}",
		"missing undo":      "terminal 1 -> 1 moves 2 apply {}",
		"dup terminal":      "terminal 1 -> 1 terminal 1 -> 1 moves 2 apply {} undo {}",
		"unterminated":      "terminal 1 -> 1 moves 2 apply { undo {}",
		"bad statement":     "terminal 1 -> 1 moves 2 apply { 3 = 4 } undo {}",
		"bad expression":    "terminal -> 1 moves 2 apply {} undo {}",
		"unbalanced parens": "terminal (1 -> 1 moves 2 apply {} undo {}",
	}
	for name, src := range cases {
		if _, err := parse(src); err == nil {
			t.Errorf("%s: parser accepted %q", name, src)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"undefined name":       "terminal q == 1 -> 1 moves 2 apply {} undo {}",
		"assign to param":      "param p = 1 terminal 1 -> 1 moves 2 apply { p = 2 } undo {}",
		"assign to builtin":    "terminal 1 -> 1 moves 2 apply { depth = 2 } undo {}",
		"reject outside apply": "terminal 1 -> 1 moves 2 apply {} undo { reject }",
		"scalar indexed":       "state s terminal 1 -> 1 moves 2 apply { s[0] = 1 } undo {}",
		"array unindexed":      "state a[3] terminal 1 -> 1 moves 2 apply { a = 1 } undo {}",
		"array in expression":  "state a[3] terminal a == 1 -> 1 moves 2 apply {} undo {}",
		"zero-size array":      "state a[0] terminal 1 -> 1 moves 2 apply {} undo {}",
		"non-const size":       "state s state a[s] terminal 1 -> 1 moves 2 apply {} undo {}",
		"dup name":             "state s state s terminal 1 -> 1 moves 2 apply {} undo {}",
		"reserved name":        "state depth terminal 1 -> 1 moves 2 apply {} undo {}",
		"shared write":         "state g shared terminal 1 -> 1 moves 2 apply { g = 1 } undo {}",
		"const div zero":       "param p = 1 / 0 terminal 1 -> 1 moves 2 apply {} undo {}",
	}
	for name, src := range cases {
		if _, err := Compile("t", src, nil); err == nil {
			t.Errorf("%s: compiler accepted %q", name, src)
		}
	}
	if _, err := Compile("t", "terminal 1 -> 1 moves 2 apply {} undo {}", map[string]int64{"nope": 1}); err == nil {
		t.Error("override of unknown param accepted")
	}
	// Shared state is writable in init and nowhere else. The rollback log
	// depends on it: a writeRec names a taskprivate cell, never a shared one.
	for _, blocks := range []string{
		"apply { g = 1 } undo {}", "apply {} undo { g = 1 }",
		"apply { t[0] = 1 } undo {}", "apply {} undo { t[0] = 1 }",
		"apply { for i = 0 to 2 { if i == m { t[i] = 1 } } } undo {}",
	} {
		_, err := Compile("t", "state g shared state t[2] shared terminal 1 -> 1 moves 2 "+blocks, nil)
		if err == nil || !strings.Contains(err.Error(), "may only be written in init") {
			t.Errorf("shared write in %q: got %v, want the written-in-init-only error", blocks, err)
		}
	}
}

func TestNQueensMatchesNative(t *testing.T) {
	// 92 solutions for 8 queens; also cross-checked against the known
	// counts for 4..9.
	want := []int64{2, 10, 4, 40, 92, 352}
	for i, n := range []int64{4, 5, 6, 7, 8, 9} {
		p := compileT(t, NQueensSrc, map[string]int64{"n": n})
		if got := serialValue(t, p); got != want[i] {
			t.Errorf("atc nqueens(%d) = %d, want %d", n, got, want[i])
		}
	}
}

func TestFibMatches(t *testing.T) {
	fib := func(n int64) int64 {
		a, b := int64(0), int64(1)
		for i := int64(0); i < n; i++ {
			a, b = b, a+b
		}
		return a
	}
	for _, n := range []int64{0, 1, 2, 10, 17} {
		p := compileT(t, FibSrc, map[string]int64{"n": n})
		if got := serialValue(t, p); got != fib(n) {
			t.Errorf("atc fib(%d) = %d, want %d", n, got, fib(n))
		}
	}
}

func TestLatinSquares(t *testing.T) {
	if got := serialValue(t, compileT(t, LatinSrc, nil)); got != 576 {
		t.Errorf("atc latin(4) = %d, want 576", got)
	}
	if got := serialValue(t, compileT(t, LatinSrc, map[string]int64{"n": 3})); got != 12 {
		t.Errorf("atc latin(3) = %d, want 12", got)
	}
}

func TestConformance(t *testing.T) {
	progtest.Conformance(t, compileT(t, NQueensSrc, map[string]int64{"n": 6}))
	progtest.Conformance(t, compileT(t, FibSrc, map[string]int64{"n": 12}))
	progtest.Conformance(t, compileT(t, LatinSrc, map[string]int64{"n": 3}))
	progtest.Conformance(t, compileT(t, permSrc, nil)) // a for loop, rejecting from inside it
}

// rollbackSrc writes before it rejects, so its apply keeps a rollback log.
const rollbackSrc = `
state a[4]
terminal depth == 2 -> 1
moves 4
apply {
    a[m] = a[m] + 1
    if a[m] > 1 { reject }
    if m == 3 { reject }       # rejected after a visible write
}
undo { a[m] = a[m] - 1 }
`

func TestRejectRollsBack(t *testing.T) {
	// The apply block writes before rejecting; a failed Apply must leave
	// the workspace untouched (the sched.Program contract).
	p := compileT(t, rollbackSrc, nil)
	ws := p.Root()
	if p.Apply(ws, 0, 3) {
		t.Fatal("move 3 should be rejected")
	}
	// The write a[3]=1 must have been rolled back: the cells are as before,
	// and applying again behaves identically.
	if got := ws.(*workspace).ev.ws; got[3] != 0 {
		t.Fatalf("cells after the rejected apply = %v, want all 0", got)
	}
	if p.Apply(ws, 0, 3) {
		t.Fatal("rollback failed: second apply of move 3 accepted")
	}
	if !p.Apply(ws, 0, 0) {
		t.Fatal("legal move refused")
	}
}

// logCases are apply blocks and whether a reject can follow a write in
// them; FuzzLangEval runs each as a program too.
var logCases = []struct {
	apply string
	logs  bool
}{
	{"if m == 0 { reject } a[m] = 1", false},
	{"a[m] = 1", false},
	{"for i = 0 to 2 { if i == m { reject } } a[0] = 1", false},
	{"a[m] = 1 if m == 2 { reject }", true},
	{"if m == 0 { a[1] = 1 } if m < 2 { reject }", true},
	{"if m == 0 { } else { a[1] = 1 } if m == 1 { reject }", true},
	{"for i = 0 to 2 { if i == 1 { reject } a[i] = m + 1 }", true},
	{"for i = 0 to 2 { a[i] = 1 } for i = 0 to 2 { if i == m { reject } }", true},
}

// logCaseSrc is a program around one of logCases' apply blocks.
func logCaseSrc(apply string) string {
	return "state a[4]\nterminal depth == 3 -> a[0] + a[1]\nmoves 3\napply { " + apply + " }\nundo { a[m] = 0 }\n"
}

// TestRollbackLogOnlyWhereNeeded pins the log-elision predicate: the four
// shipped sources reject before they write, so no Apply of theirs appends
// to the log, while rollbackSrc's apply still logs and rolls back.
func TestRollbackLogOnlyWhereNeeded(t *testing.T) {
	for _, lc := range logCases {
		if got := compileT(t, logCaseSrc(lc.apply), nil).c.applyLogs; got != lc.logs {
			t.Errorf("apply { %s }: logs %v, want %v", lc.apply, got, lc.logs)
		}
	}
	for name, src := range Sources() {
		p := compileT(t, src, map[string]int64{"n": 4})
		if p.c.applyLogs {
			t.Errorf("%s: apply keeps a rollback log, but no reject follows a write", name)
		}
		ws := p.Root()
		ev := &ws.(*workspace).ev
		var walk func(depth int)
		walk = func(depth int) {
			if _, term := p.Terminal(ws, depth); term || depth == 6 {
				return
			}
			for m := 0; m < p.Moves(ws, depth); m++ {
				ok := p.Apply(ws, depth, m)
				if cap(ev.log) != 0 {
					t.Fatalf("%s: Apply(depth %d, m %d) appended to the log", name, depth, m)
				}
				if ok {
					walk(depth + 1)
					p.Undo(ws, depth, m)
				}
			}
		}
		walk(0)
	}
	p := compileT(t, rollbackSrc, nil)
	if !p.c.applyLogs {
		t.Fatal("rollbackSrc: a reject follows a write, but apply keeps no log")
	}
	ws := p.Root()
	if p.Apply(ws, 0, 3) {
		t.Fatal("move 3 should be rejected")
	}
	if ev := &ws.(*workspace).ev; len(ev.log) == 0 || ev.ws[3] != 0 {
		t.Fatalf("rejected apply: %d log records, a[3] = %d; want a record and a[3] rolled back to 0", len(ev.log), ev.ws[3])
	}
}

func TestSharedStateNotCloned(t *testing.T) {
	src := `
param n = 3
state table[n] shared
state pos
init {
    table[0] = 10
    table[1] = 20
    table[2] = 30
}
terminal depth == 1 -> table[pos]
moves n
apply { pos = m }
undo { pos = 0 }
`
	p := compileT(t, src, nil)
	if got := serialValue(t, p); got != 60 {
		t.Fatalf("shared-table sum = %d, want 60", got)
	}
	// The clone must not carry the shared table (Bytes counts only
	// taskprivate state: one scalar).
	if b := p.Root().Bytes(); b != 8 {
		t.Fatalf("workspace bytes = %d, want 8 (shared state must not be cloned)", b)
	}
}

func TestRuntimeBoundsCheck(t *testing.T) {
	src := `
state a[2]
terminal depth == 1 -> a[depth + 5]
moves 1
apply { a[0] = 1 }
undo { a[0] = 0 }
`
	p := compileT(t, src, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected bounds panic")
		}
		if !strings.Contains(r.(*Error).Msg, "out of range") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	serialValue(t, p)
}

// TestBoundsCheckIsPerArray: the arrays of one store are neighbours in one
// flat slice, so an index past the end of a lands inside b. It must still
// fault, with a's bounds in the message, on a read and on a write.
func TestBoundsCheckIsPerArray(t *testing.T) {
	src := `
state a[2]
state b[8]
terminal depth == 1 -> a[depth + 2]
moves 1
apply { a[m + 2] = 1 }
undo { }
`
	p := compileT(t, src, nil)
	for want, call := range map[string]func(ws sched.Workspace){
		"index 3 out of range [0,2)": func(ws sched.Workspace) { p.Terminal(ws, 1) },
		"index 2 out of range [0,2)": func(ws sched.Workspace) { p.Apply(ws, 0, 0) },
	} {
		func() {
			defer func() {
				if e, ok := recover().(*Error); !ok || e.Msg != want || e.Line == 0 {
					t.Errorf("recovered %v, want a positioned %q", e, want)
				}
			}()
			call(p.Root())
		}()
	}
}

func TestOverridesChangeSize(t *testing.T) {
	small := compileT(t, NQueensSrc, map[string]int64{"n": 4})
	big := compileT(t, NQueensSrc, map[string]int64{"n": 6})
	if small.Root().Bytes() >= big.Root().Bytes() {
		t.Error("override did not resize the state arrays")
	}
}

func TestSourcesCompile(t *testing.T) {
	for name, src := range Sources() {
		if _, err := CompileProgram(name, src, nil); err != nil {
			t.Errorf("built-in source %s fails to compile: %v", name, err)
		}
	}
}

func TestForLoop(t *testing.T) {
	src := `
param n = 10
state total shared
state dummy
init {
    for i = 0 to n {
        for j = 0 to i {
            total = total + 1
        }
    }
}
terminal depth == 1 -> total
moves 1
apply { dummy = 1 }
undo { dummy = 0 }
`
	p := compileT(t, src, nil)
	// Σ_{i<10} i = 45 per leaf; one leaf.
	if got := serialValue(t, p); got != 45 {
		t.Fatalf("for-loop total = %d, want 45", got)
	}
}

func TestForLoopErrors(t *testing.T) {
	cases := map[string]string{
		"assign to loop var": "state s terminal 1 -> 1 moves 1 apply { for i = 0 to 3 { i = 2 } } undo {}",
		"shadow state":       "state s terminal 1 -> 1 moves 1 apply { for s = 0 to 3 { } } undo {}",
		"shadow nested":      "state s terminal 1 -> 1 moves 1 apply { for i = 0 to 3 { for i = 0 to 2 { } } } undo {}",
		"shadow builtin":     "state s terminal 1 -> 1 moves 1 apply { for m = 0 to 3 { } } undo {}",
	}
	for name, src := range cases {
		if _, err := Compile("t", src, nil); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
	// Loop variable must not leak out of its scope.
	leak := "state s terminal 1 -> 1 moves 1 apply { for i = 0 to 3 { s = i } s = i } undo {}"
	if _, err := Compile("t", leak, nil); err == nil {
		t.Error("loop variable leaked out of scope")
	}
}

func TestKnightMatchesNative(t *testing.T) {
	// Cross-check the ATC knight's tour against problems/knight via the
	// known values: 5x5 from the corner.
	p := compileT(t, KnightSrc, map[string]int64{"n": 5})
	got := serialValue(t, p)
	if got <= 0 {
		t.Fatalf("atc knight(5) = %d, want > 0", got)
	}
	// 4x4 has no tours.
	if got4 := serialValue(t, compileT(t, KnightSrc, map[string]int64{"n": 4})); got4 != 0 {
		t.Fatalf("atc knight(4) = %d, want 0", got4)
	}
	t.Logf("atc knight(5) from corner = %d", got)
}

func TestForLoopRejectInsideApply(t *testing.T) {
	src := `
param n = 4
state used[n]
state picks[n]
terminal depth == n -> 1
moves n
apply {
    # permutations: reject if m already used anywhere (loop + reject)
    for i = 0 to depth {
        if picks[i] == m { reject }
    }
    picks[depth] = m
    used[m] = used[m] + 1
}
undo {
    used[m] = used[m] - 1
}
`
	p := compileT(t, src, nil)
	if got := serialValue(t, p); got != 24 {
		t.Fatalf("permutations(4) = %d, want 24", got)
	}
}
