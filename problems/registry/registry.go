// Package registry maps benchmark names to Program constructors — the
// shared vocabulary of cmd/adaptivetc-run, the experiment drivers and the
// serving API (internal/serve), which needs to build a Program from a JSON
// job submission without linking the experiment machinery.
package registry

import (
	"fmt"
	"sort"

	"adaptivetc/internal/lang"
	"adaptivetc/internal/sched"
	"adaptivetc/problems/bnb"
	"adaptivetc/problems/comp"
	"adaptivetc/problems/dagflow"
	"adaptivetc/problems/fib"
	"adaptivetc/problems/firstsol"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/pentomino"
	"adaptivetc/problems/strimko"
	"adaptivetc/problems/sudoku"
	"adaptivetc/problems/synthtree"
)

// Params are the family-specific size knobs of one instance.
type Params struct {
	// N is the main size parameter (board side, fib argument, removals,
	// givens, …). Zero means the family default.
	N int
	// M is the secondary size parameter of two-knob families (DAG width,
	// knapsack capacity, SAT clause count). Zero means the family default;
	// single-knob families ignore it.
	M int
	// Size is the synthetic-tree leaf count. Zero means the family default.
	Size int64
	// Reverse mirrors a synthetic tree (worst case for left-to-right
	// depth-first stealing).
	Reverse bool
}

// entry is one registered program family.
type entry struct {
	defaultN    int
	defaultM    int
	defaultSize int64
	maxN        int // largest N the constructor represents; 0: no limit
	build       func(Params) (sched.Program, error)
	// firstSolution marks families meant to run with first-solution-wins
	// semantics (Options.FirstSolution / JobSpec.FirstSolution): the run's
	// Value is one solution witness, not a sum over the whole tree.
	firstSolution bool
	// verify, when set, checks a nonzero first-solution witness against a
	// rebuilt instance.
	verify func(Params, int64) bool
}

// table is the registry. Defaults are chosen to finish in well under a
// second serially, so a serve job with no parameters is a sensible probe.
var table = map[string]entry{
	"nqueens-array": {defaultN: 8, maxN: nqueens.MaxN, build: func(p Params) (sched.Program, error) {
		return nqueens.NewArray(p.N), nil
	}},
	"nqueens-compute": {defaultN: 8, maxN: nqueens.MaxN, build: func(p Params) (sched.Program, error) {
		return nqueens.NewCompute(p.N), nil
	}},
	"sudoku-balanced": {defaultN: 40, build: func(p Params) (sched.Program, error) {
		return sudoku.Balanced(3, p.N), nil
	}},
	"sudoku-input1": {defaultN: 40, build: func(p Params) (sched.Program, error) {
		return sudoku.Input1(3, p.N), nil
	}},
	"sudoku-input2": {defaultN: 40, build: func(p Params) (sched.Program, error) {
		return sudoku.Input2(3, p.N), nil
	}},
	"sudoku-empty4": {build: func(p Params) (sched.Program, error) {
		return sudoku.Empty(2), nil
	}},
	"strimko": {defaultN: 7, build: func(p Params) (sched.Program, error) {
		return strimko.Diagonal(7, p.N), nil
	}},
	// knight.MaxCells is 32767, and 181 the largest side whose square fits.
	"knight": {defaultN: 5, maxN: 181, build: func(p Params) (sched.Program, error) {
		return knight.New(p.N), nil
	}},
	"pentomino": {defaultN: 5, maxN: pentomino.MaxN, build: func(p Params) (sched.Program, error) {
		return pentomino.New(p.N), nil
	}},
	"fib": {defaultN: 20, maxN: fib.MaxN, build: func(p Params) (sched.Program, error) {
		return fib.New(p.N), nil
	}},
	"comp": {defaultN: 18, build: func(p Params) (sched.Program, error) {
		return comp.New(p.N), nil
	}},
	"tree1": {defaultSize: 1 << 16, build: func(p Params) (sched.Program, error) {
		return tree(synthtree.Tree1(p.Size), p.Reverse), nil
	}},
	"tree2": {defaultSize: 1 << 16, build: func(p Params) (sched.Program, error) {
		return tree(synthtree.Tree2(p.Size), p.Reverse), nil
	}},
	"tree3": {defaultSize: 1 << 16, build: func(p Params) (sched.Program, error) {
		return tree(synthtree.Tree3(p.Size), p.Reverse), nil
	}},
	"atc-nqueens": {defaultN: 8, build: compiled("nqueens")},
	"atc-fib":     {defaultN: 20, build: compiled("fib")},
	"atc-latin":   {defaultN: 5, build: compiled("latin")},
	"atc-knight":  {defaultN: 5, build: compiled("knight")},
	// Dataflow DAGs: N layers/rows × M width/cols (see problems/dagflow).
	"dag-layered": {defaultN: 5, defaultM: 4, build: func(p Params) (sched.Program, error) {
		return dagflow.NewLayered(p.N, p.M, 20100424), nil
	}},
	"dag-stencil": {defaultN: 6, defaultM: 6, build: func(p Params) (sched.Program, error) {
		return dagflow.NewStencil(p.N, p.M), nil
	}},
	// Branch-and-bound: N items/cities, M the knapsack capacity override
	// (0 = 40% of total weight; see problems/bnb).
	"bnb-knapsack": {defaultN: 14, build: func(p Params) (sched.Program, error) {
		return bnb.NewKnapsack(p.N, int64(p.M), 20100424), nil
	}},
	"bnb-tsp": {defaultN: 7, build: func(p Params) (sched.Program, error) {
		return bnb.NewTSP(p.N, 20100424), nil
	}},
	// First-solution-wins search: N board side / variable count, M the SAT
	// clause count (see problems/firstsol).
	"first-nqueens": {defaultN: 7, firstSolution: true,
		build: func(p Params) (sched.Program, error) {
			return firstsol.NewQueens(p.N), nil
		},
		verify: func(p Params, v int64) bool {
			return firstsol.NewQueens(p.N).Verify(v)
		}},
	"first-sat": {defaultN: 12, firstSolution: true,
		build: func(p Params) (sched.Program, error) {
			return firstsol.NewSAT(p.N, p.M, 20100424), nil
		},
		verify: func(p Params, v int64) bool {
			return firstsol.NewSAT(p.N, p.M, 20100424).Verify(v)
		}},
}

func tree(spec synthtree.Spec, reverse bool) sched.Program {
	spec.Seed = 20100424
	if reverse {
		spec = spec.Reverse()
	}
	return synthtree.New(spec)
}

func compiled(src string) func(Params) (sched.Program, error) {
	return func(p Params) (sched.Program, error) {
		return lang.CompileProgram(src, lang.Sources()[src], map[string]int64{"n": int64(p.N)})
	}
}

// resolve fills zero-valued Params fields with the family defaults and
// rejects the sizes the family cannot build: a negative field, or an N above
// its maxN.
func (e entry) resolve(name string, p Params) (Params, error) {
	if p.N < 0 || p.M < 0 || p.Size < 0 {
		return p, fmt.Errorf("program %q: negative size (n=%d, m=%d, size=%d)", name, p.N, p.M, p.Size)
	}
	if p.N == 0 {
		p.N = e.defaultN
	}
	if p.M == 0 {
		p.M = e.defaultM
	}
	if p.Size == 0 {
		p.Size = e.defaultSize
	}
	if e.maxN > 0 && p.N > e.maxN {
		return p, fmt.Errorf("program %q: n=%d above its largest size %d", name, p.N, e.maxN)
	}
	return p, nil
}

// Build constructs the named benchmark instance, applying the family
// defaults for zero-valued Params fields. A size the family cannot build is
// an error, never a panic.
func Build(name string, p Params) (sched.Program, error) {
	e, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("unknown program %q (have %v)", name, Names())
	}
	p, err := e.resolve(name, p)
	if err != nil {
		return nil, err
	}
	return e.build(p)
}

// FirstSolution reports whether the named family is meant to run with
// first-solution-wins semantics. Unknown names report false.
func FirstSolution(name string) bool {
	return table[name].firstSolution
}

// VerifyWitness checks a first-solution witness against the named family.
// checkable is false when the family has no verifier or when v is zero —
// zero may legitimately mean "search space has no solution", which a
// witness check cannot distinguish from a lost result.
func VerifyWitness(name string, p Params, v int64) (ok, checkable bool) {
	e, found := table[name]
	if !found || e.verify == nil || v == 0 {
		return false, false
	}
	p, err := e.resolve(name, p)
	if err != nil {
		return false, false
	}
	return e.verify(p, v), true
}

// Names lists the registered program names, sorted.
func Names() []string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
