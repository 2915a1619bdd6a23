package wsrt_test

import (
	"runtime"
	"testing"

	"adaptivetc/internal/core"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/slaw"
	"adaptivetc/internal/vtime"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/sudoku"
	"adaptivetc/problems/synthtree"
)

// TestRecycleAllocBudget pins what recycling the child workspace buys: an
// engine that clones at every spawn (Cilk), at every node below its cut-off
// (Cutoff-library) or at every real task (AdaptiveTC) allocates next to
// nothing per node once its worker's pool is warm. Before every engine
// released the workspace of a child that returned unstolen, the first two
// allocated more than one object per node. One Real worker, so no steal
// takes a workspace out of circulation.
func TestRecycleAllocBudget(t *testing.T) {
	const budget = 0.05 // heap objects per node
	p := nqueens.NewArray(9)
	for _, e := range []sched.Engine{wsrt.Cilk, wsrt.CutoffLibrary, core.New()} {
		t.Run(e.Name(), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := e.Run(p, sched.Options{Workers: 1, Platform: &vtime.Real{Seed: 1}})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perNode := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Nodes)
			if perNode > budget {
				t.Errorf("%.3f allocations per node over %d nodes, budget %v", perNode, res.Stats.Nodes, budget)
			}
		})
	}
}

// TestRecycleAliasing is the stress for the ownership argument at
// Fast.Loop's Release: every engine built on this runtime, on programs whose
// workspaces recycle (a board, a grid, a synthetic payload, an append-grown
// path, a DSL cell array with its evaluation scratch), at 4 Real workers. A
// workspace released while a thief, a suspended frame or a special task's
// join can still read it is overwritten by the next Clone, which shows up as
// a sum that differs from the serial one or, under -race, as a report. The
// 5×5 knight's tour is 1.7 M nodes; -short (the -race -count=20 step in CI)
// takes the 5×4 board instead.
func TestRecycleAliasing(t *testing.T) {
	tour := knight.New(5)
	if testing.Short() {
		tour = knight.NewRect(5, 4, 0, 0)
	}
	dsl, err := lang.CompileProgram("nqueens", lang.NQueensSrc, map[string]int64{"n": 7})
	if err != nil {
		t.Fatal(err)
	}
	programs := []sched.Program{
		nqueens.NewArray(8),
		sudoku.Input1(3, 50),
		synthtree.New(synthtree.Tree3(30000)),
		tour,
		dsl,
	}
	engines := []sched.Engine{
		wsrt.Cilk, wsrt.CilkSynched, core.New(),
		wsrt.CutoffProgrammer, wsrt.CutoffLibrary,
		slaw.NewHelpFirst(), slaw.New(),
	}
	for _, p := range programs {
		want, err := sched.Serial{}.Run(p, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			t.Run(e.Name()+"/"+p.Name(), func(t *testing.T) {
				t.Parallel()
				res, err := e.Run(p, sched.Options{Workers: 4, Platform: &vtime.Real{Seed: 7}})
				if err != nil {
					t.Fatal(err)
				}
				if res.Value != want.Value || res.Stats.Nodes != want.Stats.Nodes {
					t.Errorf("value %d over %d nodes, serial says %d over %d",
						res.Value, res.Stats.Nodes, want.Value, want.Stats.Nodes)
				}
			})
		}
	}
}
