package wsrt_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivetc/internal/core"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/slaw"
	"adaptivetc/internal/vtime"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/registry"
	"adaptivetc/problems/sudoku"
	"adaptivetc/problems/synthtree"
)

// TestRecycleAllocBudget pins what recycling the child workspace buys: an
// engine that clones at every spawn (Cilk), at every node below its cut-off
// (Cutoff-library) or at every real task (AdaptiveTC) allocates next to
// nothing per node once its worker's pool is warm. Before every engine
// released the workspace of a child that returned unstolen, the first two
// allocated more than one object per node. The synthetic tree holds the
// program to the same budget: before its child sizes moved into one slab
// on the workspace it allocated ~1.2 objects per node on every engine. One
// Real worker, so no steal takes a workspace out of circulation.
func TestRecycleAllocBudget(t *testing.T) {
	const budget = 0.05 // heap objects per node
	programs := []sched.Program{nqueens.NewArray(9), synthtree.New(synthtree.Tree3(30000))}
	for _, e := range []sched.Engine{wsrt.Cilk, wsrt.CutoffLibrary, core.New()} {
		t.Run(e.Name(), func(t *testing.T) {
			for _, p := range programs {
				t.Run(p.Name(), func(t *testing.T) {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					res, err := e.Run(p, sched.Options{Workers: 1, Platform: &vtime.Real{Seed: 1}})
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					perNode := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Nodes)
					t.Logf("%.4f allocations per node over %d nodes", perNode, res.Stats.Nodes)
					if perNode > budget {
						t.Errorf("%.3f allocations per node over %d nodes, budget %v", perNode, res.Stats.Nodes, budget)
					}
				})
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
//
// The steal-heavy rows run AdaptiveTC and Cilk on tree3 under the fault
// plane's deposit delays, which hold a victim between its failed Pop and
// its deposit: a stolen frame's thief then often reaches the sync first and
// suspends, so the releases where a child returns to a stolen frame, where a
// thief completes a stolen frame and where a depositor finalises one all
// run, each handing a workspace to a pool another worker's Clone may take.
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
		want := serialRun(t, p)
		for _, e := range engines {
			checkAliasing(t, e, p, want, e.Name()+"/"+p.Name(), nil)
		}
	}
	delay, err := faults.Scenario("deposit-delay", 7)
	if err != nil {
		t.Fatal(err)
	}
	tree := synthtree.New(synthtree.Tree3(100000))
	want := serialRun(t, tree)
	for _, e := range []sched.Engine{core.New(), wsrt.Cilk} {
		gated := &stealGate{Program: tree, open: make(chan struct{})}
		checkAliasing(t, e, gated, want, e.Name()+"/"+tree.Name()+"/deposit-delay", &delay)
	}
}

// stealGate holds the first worker to reach a node at depth 2 — the root
// worker, as no thief has work before then — until a thief calls into the
// program, which it can only do on a frame it stole. The root worker's deque
// holds the frames of depths 0 and 1 by then (AdaptiveTC's cutoff at 4
// workers is 2), so a thief always finds one. Without the gate a root worker
// whose thieves had not yet been scheduled (GOMAXPROCS=1 shows it in a few
// runs of ten) walked the whole tree alone and the row saw no steal.
type stealGate struct {
	sched.Program
	taken   atomic.Bool // the first worker at depth 2 took the gate
	waiting atomic.Bool // and waits in it for a thief
	open    chan struct{}
	once    sync.Once
}

func (g *stealGate) Terminal(ws sched.Workspace, depth int) (int64, bool) {
	g.thief()
	if depth == 2 && g.taken.CompareAndSwap(false, true) {
		g.waiting.Store(true)
		select {
		case <-g.open:
		case <-time.After(10 * time.Second): // the steal assertion reports it
		}
	}
	return g.Program.Terminal(ws, depth)
}

// Moves is the first call a resumed frame makes (Fast.Loop).
func (g *stealGate) Moves(ws sched.Workspace, depth int) int {
	g.thief()
	return g.Program.Moves(ws, depth)
}

// thief opens the gate: while the root worker waits in it, every call into
// the program comes from another worker.
func (g *stealGate) thief() {
	if g.waiting.Load() {
		g.once.Do(func() { close(g.open) })
	}
}

func serialRun(t *testing.T, p sched.Program) sched.Result {
	res, err := sched.Serial{}.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkAliasing runs e on p at 4 Real workers, under the fault spec when
// there is one, in a parallel subtest, and holds value and node count to
// the serial oracle's.
func checkAliasing(t *testing.T, e sched.Engine, p sched.Program, want sched.Result, name string, spec *faults.Spec) {
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		opt := sched.Options{Workers: 4, Platform: &vtime.Real{Seed: 7}}
		if spec != nil {
			opt.Faults = faults.New(*spec)
		}
		res, err := e.Run(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want.Value || res.Stats.Nodes != want.Stats.Nodes {
			t.Errorf("value %d over %d nodes, serial says %d over %d",
				res.Value, res.Stats.Nodes, want.Value, want.Stats.Nodes)
		}
		if spec != nil && res.Stats.Steals == 0 {
			t.Errorf("no steal in a steal-heavy row: nothing left a worker")
		}
	})
}

// TestSimStealAllocBudget pins what returning a stolen frame's workspace buys
// on paper-sim's steal-heaviest shape: AdaptiveTC on tree3(20000) at P = 8,
// seed 1, Cutoff 3, 3 317 steals a run. A run allocates ~5 400 heap objects
// when the thief that completes a stolen frame, or the depositor that
// finalises it, and the victim whose child returned to the stolen frame each
// put a workspace back in a pool, and 18 364 when each steal leaves them to
// the collector.
func TestSimStealAllocBudget(t *testing.T) {
	const budget = 8000 // heap objects per run
	prog, err := registry.Build("tree3", registry.Params{Size: 20000})
	if err != nil {
		t.Fatal(err)
	}
	opt := sched.Options{Workers: 8, Seed: 1, Cutoff: 3}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.New().Run(prog, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f heap objects per run", allocs)
	if allocs > budget {
		t.Errorf("%.0f heap objects per run, budget %d", allocs, budget)
	}
}
