// Command adaptivetc-run executes one (problem, engine, workers)
// combination and prints the result with full scheduler statistics.
//
// Usage:
//
//	adaptivetc-run -prog nqueens-array -n 11 -engine adaptivetc -workers 8
//	adaptivetc-run -prog sudoku-input1 -n 44 -engine tascell -workers 4 -profile
//	adaptivetc-run -prog tree3 -size 200000 -engine cilk -workers 8 -real
//
// Programs (see -list): nqueens-array, nqueens-compute, sudoku-balanced,
// sudoku-input1, sudoku-input2, sudoku-empty4, strimko, knight, pentomino,
// fib, comp, tree1, tree2, tree3 (use -reverse for the right-heavy
// mirrors), the mini-language programs atc-nqueens, atc-fib, atc-latin,
// atc-knight, and the post-paper families dag-layered, dag-stencil,
// bnb-knapsack, bnb-tsp, first-nqueens, first-sat (two-knob families
// take -m; first-* run with first-solution-wins semantics).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"adaptivetc"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

func main() {
	list := flag.Bool("list", false, "list program names and exit")
	progName := flag.String("prog", "nqueens-array", "program to run")
	n := flag.Int("n", 10, "problem size parameter (board size, removals, givens, …)")
	m := flag.Int("m", 0, "secondary size parameter of two-knob families (DAG width, knapsack capacity, SAT clauses; 0 = family default)")
	size := flag.Int64("size", 100000, "synthetic tree leaf count")
	reverse := flag.Bool("reverse", false, "mirror a synthetic tree (L→R)")
	engineName := flag.String("engine", adaptivetc.NewAdaptiveTC().Name(),
		fmt.Sprintf("engine: %v", adaptivetc.EngineNames()))
	workers := flag.Int("workers", 8, "number of workers")
	seed := flag.Int64("seed", 1, "victim-selection seed")
	stealPolicy := flag.String("steal-policy", "random",
		fmt.Sprintf("steal strategy: %v (wsrt engines only)", wsrt.StealPolicyNames()))
	relaxed := flag.Bool("relaxed-deque", false, "use the lock-reduced deque variant (implies a growable buffer)")
	profile := flag.Bool("profile", false, "collect the per-phase time breakdown")
	real := flag.Bool("real", false, "run on real goroutines instead of virtual time")
	cutoff := flag.Int("cutoff", 0, "cut-off depth (cutoff-programmer, or with -force-cutoff)")
	forceCutoff := flag.Bool("force-cutoff", false, "pin AdaptiveTC's cutoff to -cutoff instead of ⌈log2 N⌉")
	analyze := flag.Bool("analyze", false, "print the search-tree shape instead of running")
	timeout := flag.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = none)")
	flag.Parse()

	if *list {
		for _, name := range registry.Names() {
			fmt.Println(name)
		}
		return
	}
	prog, err := registry.Build(*progName, registry.Params{N: *n, M: *m, Size: *size, Reverse: *reverse})
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-run: %v\n", err)
		os.Exit(2)
	}
	if *analyze {
		fmt.Println(adaptivetc.Analyze(prog, 100e6))
		return
	}
	engine, err := adaptivetc.EngineByName(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-run: %v\n", err)
		os.Exit(2)
	}
	if !wsrt.ValidStealPolicy(*stealPolicy) {
		fmt.Fprintf(os.Stderr, "adaptivetc-run: unknown -steal-policy %q (have %v)\n",
			*stealPolicy, wsrt.StealPolicyNames())
		os.Exit(2)
	}
	opt := adaptivetc.Options{
		Workers:      *workers,
		Seed:         *seed,
		Profile:      *profile,
		Cutoff:       *cutoff,
		ForceCutoff:  *forceCutoff,
		StealPolicy:  *stealPolicy,
		RelaxedDeque: *relaxed,
		// First-solution families carry their mode in registry metadata:
		// the run stops at the first claimed witness instead of summing
		// the whole tree.
		FirstSolution: registry.FirstSolution(*progName),
	}
	if *real {
		opt.Platform = adaptivetc.NewRealPlatform(*seed)
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opt.Ctx = ctx
	}
	res, err := engine.Run(prog, opt)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "adaptivetc-run: run aborted: exceeded -timeout %v (raise it, shrink the problem, or add workers)\n", *timeout)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "adaptivetc-run: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	st := res.Stats
	fmt.Printf("nodes=%d tasks=%d fake=%d special=%d steals=%d steal-fails=%d suspends=%d\n",
		st.Nodes, st.TasksCreated, st.FakeTasks, st.SpecialTasks, st.Steals, st.StealFails, st.Suspends)
	fmt.Printf("copies=%d (%d bytes) polls=%d requests=%d max-deque-depth=%d\n",
		st.WorkspaceCopies, st.WorkspaceBytes, st.Polls, st.Requests, st.MaxDequeDepth)
	if *profile {
		fmt.Printf("time: worker=%dns work=%d copy=%d deque=%d poll=%d wait=%d steal=%d respond=%d\n",
			st.WorkerTime, st.WorkTime, st.CopyTime, st.DequeTime, st.PollTime, st.WaitTime, st.StealTime, st.RespondTime)
		fmt.Printf("idle: parks=%d wakes=%d (wall-clock runs only; nothing parks under Sim)\n", st.Parks, st.Wakes)
	}
}
