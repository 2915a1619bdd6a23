package registry

import (
	"testing"

	"adaptivetc/internal/progtest"
	"adaptivetc/internal/sched"
)

// TestBuildDefaults builds every registered family with zero Params (family
// defaults) and checks the instance self-describes.
func TestBuildDefaults(t *testing.T) {
	for _, name := range Names() {
		p, err := Build(name, Params{})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("Build(%q): empty program name", name)
		}
		if p.Root() == nil {
			t.Fatalf("Build(%q): nil root workspace", name)
		}
	}
}

// TestBytesIgnoreBuffer holds every registered family, at its default size,
// to the law the copy charge rests on: Bytes() is the same for a workspace,
// its Clone and a recycled buffer holding the same node.
func TestBytesIgnoreBuffer(t *testing.T) {
	for _, name := range Names() {
		p, err := Build(name, Params{})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		t.Run(name, func(t *testing.T) { progtest.Bytes(t, p) })
	}
}

// TestBuildUnknown rejects unregistered names.
func TestBuildUnknown(t *testing.T) {
	if _, err := Build("no-such-program", Params{}); err == nil {
		t.Fatal("Build accepted an unknown name")
	}
}

// TestBuildBadSizes: every family answers a negative size, and N = 200,
// with an error or a buildable program, never a panic. 200 is beyond what
// Fib's int64 value, the Knight's Tour int16 path, Pentomino's 12 pieces and
// the n-queens int8 board represent; the other families build it.
func TestBuildBadSizes(t *testing.T) {
	tooBig := map[string]bool{"fib": true, "knight": true, "pentomino": true, "nqueens-array": true, "nqueens-compute": true}
	build := func(name string, p Params) (prog sched.Program, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Build(%q, %+v) panicked: %v", name, p, r)
			}
		}()
		prog, err = Build(name, p)
		if err == nil {
			prog.Root()
		}
		return prog, err
	}
	for _, name := range Names() {
		for _, p := range []Params{{N: -1}, {M: -1}, {Size: -1}} {
			if _, err := build(name, p); err == nil {
				t.Errorf("Build(%q, %+v) accepted a negative size", name, p)
			}
		}
		if _, err := build(name, Params{N: 200}); (err != nil) != tooBig[name] {
			t.Errorf("Build(%q, N=200): error %v, want one: %v", name, err, tooBig[name])
		}
	}
	for name, n := range map[string]int{"fib": 92, "knight": 181, "pentomino": 12, "nqueens-array": 127, "nqueens-compute": 127} {
		if _, err := build(name, Params{N: n}); err != nil {
			t.Errorf("Build(%q, N=%d), the largest size: %v", name, n, err)
		}
	}
}

// TestBuildSizedRunsSerially builds every name at an explicit small size —
// the way adaptivetc-run's -n and -size reach Build — and runs it on the
// serial reference: a name that builds must at least be executable.
func TestBuildSizedRunsSerially(t *testing.T) {
	for _, name := range Names() {
		n := 6
		switch name {
		case "sudoku-balanced", "sudoku-input1", "sudoku-input2":
			n = 30
		case "strimko":
			n = 20
		case "knight":
			n = 4
		case "pentomino":
			n = 3
		case "comp":
			n = 64
		case "atc-nqueens", "atc-fib", "atc-latin", "atc-knight":
			n = 5
		}
		p, err := Build(name, Params{N: n, Size: 2000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil || p.Name() == "" {
			t.Fatalf("%s: bad program", name)
		}
		if _, err := (sched.Serial{}).Run(p, sched.Options{Workers: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestBuildReverse checks that Params.Reverse mirrors a synthetic tree.
func TestBuildReverse(t *testing.T) {
	l, err := Build("tree3", Params{Size: 4000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build("tree3", Params{Size: 4000, Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() == r.Name() {
		t.Fatalf("reverse did not change the tree: %s", l.Name())
	}
}

// TestZeroParamsBackwardCompat pins the instance every name builds with
// zero Params. Params grew an M knob; a zero-valued M must leave every
// single-knob family byte-for-byte identical, which the instance Name()
// strings (they embed the effective size parameters) witness.
func TestZeroParamsBackwardCompat(t *testing.T) {
	want := map[string]string{
		"nqueens-array":   "nqueen-array(8)",
		"nqueens-compute": "nqueen-compute(8)",
		"sudoku-balanced": "sudoku-balanced(40)",
		"sudoku-input1":   "sudoku-input1(40)",
		"sudoku-input2":   "sudoku-input2(40)",
		"sudoku-empty4":   "sudoku-empty4",
		"strimko":         "strimko-diag(7,7)",
		"knight":          "knight(5x5@0,0)",
		"pentomino":       "pentomino(5)",
		"fib":             "fib(20)",
		"comp":            "comp(18)",
		"tree1":           "synthtree-tree1L",
		"tree2":           "synthtree-tree2L",
		"tree3":           "synthtree-tree3L",
		"atc-nqueens":     "atc:nqueens",
		"atc-fib":         "atc:fib",
		"atc-latin":       "atc:latin",
		"atc-knight":      "atc:knight",
		// Two-knob and first-solution families, pinned at their defaults
		// so default drift is a loud failure too.
		"dag-layered":   "dag-layered(L=5,W=4)",
		"dag-stencil":   "dag-stencil(6x6)",
		"bnb-knapsack":  "bnb-knapsack(n=14,cap=76)",
		"bnb-tsp":       "bnb-tsp(n=7)",
		"first-nqueens": "first-nqueens(7)",
		"first-sat":     "first-sat(v=12,c=48)",
	}
	for _, name := range Names() {
		w, ok := want[name]
		if !ok {
			t.Errorf("registry name %q not pinned here — add it", name)
			continue
		}
		prog, err := Build(name, Params{})
		if err != nil {
			t.Errorf("Build(%q, zero Params): %v", name, err)
			continue
		}
		if got := prog.Name(); got != w {
			t.Errorf("Build(%q, zero Params).Name() = %q, want %q", name, got, w)
		}
	}
	for name := range want {
		if _, err := Build(name, Params{}); err != nil {
			t.Errorf("pinned name %q no longer registered: %v", name, err)
		}
	}
}

// TestFirstSolutionMetadata pins which families carry first-solution
// semantics and that their witness verifiers accept a genuine witness and
// reject a corrupted one.
func TestFirstSolutionMetadata(t *testing.T) {
	for _, name := range Names() {
		want := name == "first-nqueens" || name == "first-sat"
		if got := FirstSolution(name); got != want {
			t.Errorf("FirstSolution(%q) = %v, want %v", name, got, want)
		}
	}
	if _, checkable := VerifyWitness("fib", Params{}, 6765); checkable {
		t.Error("VerifyWitness(fib) should not be checkable")
	}
	if _, checkable := VerifyWitness("first-nqueens", Params{}, 0); checkable {
		t.Error("VerifyWitness with zero value should not be checkable (may mean no solution)")
	}
	// Valid 7-queens placement {0,2,4,6,1,3,5}, packed Σ (col+1)·8^row.
	var w int64
	mul := int64(1)
	for _, c := range []int64{0, 2, 4, 6, 1, 3, 5} {
		w += (c + 1) * mul
		mul *= 8
	}
	if ok, checkable := VerifyWitness("first-nqueens", Params{}, w); !checkable || !ok {
		t.Errorf("VerifyWitness(first-nqueens, %d) = %v,%v; want true,true", w, ok, checkable)
	}
	if ok, checkable := VerifyWitness("first-nqueens", Params{}, w+1); !checkable || ok {
		t.Errorf("VerifyWitness(first-nqueens, corrupted) = %v,%v; want false,true", ok, checkable)
	}
}
