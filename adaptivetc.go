// Package adaptivetc is a Go reproduction of "An Adaptive Task Creation
// Strategy for Work-Stealing Scheduling" (Wang et al., CGO 2010). It
// provides:
//
//   - the AdaptiveTC scheduler itself — adaptive switching between real
//     tasks, fake tasks (plain recursion) and special tasks, with
//     taskprivate workspace semantics (NewAdaptiveTC);
//   - the paper's baselines: Cilk, Cilk-SYNCHED, Tascell and two cut-off
//     strategies (NewCilk, NewCilkSynched, NewTascell,
//     NewCutoffProgrammer, NewCutoffLibrary), plus a Serial reference;
//   - the Program/Workspace model every benchmark is written against, and
//     ready-made programs under problems/ (n-queens, Sudoku, Strimko,
//     Knight's Tour, Pentomino, Fib, Comp, synthetic unbalanced trees);
//   - two execution platforms: real goroutine workers, and a deterministic
//     virtual-time simulator whose makespans stand in for wall-clock time
//     on an N-core machine (the default, and how the paper's figures are
//     regenerated on any host).
//
// Quick start:
//
//	p := nqueens.NewArray(10)
//	res, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{Workers: 8})
//	// res.Value = 724 solutions; res.Makespan = virtual ns
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package adaptivetc

import (
	"fmt"
	"slices"

	"adaptivetc/internal/core"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/slaw"
	"adaptivetc/internal/tascell"
	"adaptivetc/internal/vtime"
	"adaptivetc/internal/wsrt"
)

// Core vocabulary, shared by every engine. See the sched package docs on
// each type; they are aliased here so external code never has to name an
// internal import path.
type (
	// Program is a recursive task function in the paper's spawn/sync shape.
	Program = sched.Program
	// Workspace is a task's taskprivate working state.
	Workspace = sched.Workspace
	// Reusable is a workspace that supports in-place copy (SYNCHED pool).
	Reusable = sched.Reusable
	// Coster optionally prices a program's per-node work for virtual time.
	Coster = sched.Coster
	// Options configures a run (workers, platform, costs, cutoff, …).
	Options = sched.Options
	// Costs is the virtual-time price list for scheduler actions.
	Costs = sched.Costs
	// Result is one run's outcome: value, makespan, statistics.
	Result = sched.Result
	// Stats aggregates scheduler counters and per-phase times.
	Stats = sched.Stats
	// Engine is a scheduling strategy under test.
	Engine = sched.Engine
	// TreeStats describes a search tree's shape (Figure 8 / Table 3).
	TreeStats = sched.TreeStats
	// Platform executes a run's workers (simulated or real).
	Platform = vtime.Platform
)

// DefaultCosts returns the calibrated virtual cost model.
func DefaultCosts() Costs { return sched.DefaultCosts() }

// LogCutoff returns ⌈log2 n⌉, AdaptiveTC's initial cutoff for n workers.
func LogCutoff(n int) int { return sched.LogCutoff(n) }

// Analyze walks a program's search tree and reports its shape.
func Analyze(p Program, maxNodes int64) TreeStats { return sched.Analyze(p, maxNodes) }

// NewSerial returns the single-threaded reference engine, the baseline all
// speedups are computed against.
func NewSerial() Engine { return sched.Serial{} }

// NewAdaptiveTC returns the paper's contribution: the adaptive task
// creation scheduler with its fast/check/fast_2/sequence/slow versions.
func NewAdaptiveTC() Engine { return core.New() }

// NewCilk returns the Cilk 5.4.6 baseline: a task per spawn, workspace
// copied for every child.
func NewCilk() Engine { return wsrt.Cilk }

// NewCilkSynched returns Cilk with the SYNCHED-variable space optimisation
// (pooled workspace memory; bytes still copied).
func NewCilkSynched() Engine { return wsrt.CilkSynched }

// NewTascell returns the Tascell baseline: backtracking-based lazy task
// creation with non-suspendable joins; a victim gives away half of a
// level's remaining iterations per request (the parallel-for rule of
// §5.3.2).
func NewTascell() Engine { return tascell.New() }

// NewTascellSingle returns the Tascell variant that extracts exactly one
// iteration per request — the plain-recursion rule of the paper's §1.
func NewTascellSingle() Engine { return tascell.NewSingle() }

// NewCutoffProgrammer returns the programmer-specified cut-off baseline of
// Figure 9 (Options.Cutoff sets the depth).
func NewCutoffProgrammer() Engine { return wsrt.CutoffProgrammer }

// NewCutoffLibrary returns the runtime-chosen cut-off baseline of Figure 9.
func NewCutoffLibrary() Engine { return wsrt.CutoffLibrary }

// NewHelpFirst returns the help-first scheduling extension: every spawn
// pushes the child task and the parent continues (contrast with Cilk's
// work-first policy).
func NewHelpFirst() Engine { return slaw.NewHelpFirst() }

// NewSLAW returns the SLAW-like extension engine that adaptively switches
// between help-first and work-first per spawn — the alternative adaptive
// scheduler the paper's related work contrasts AdaptiveTC with.
func NewSLAW() Engine { return slaw.New() }

// NewSimPlatform returns the deterministic virtual-time platform. seed
// fixes victim selection; zero means 1.
func NewSimPlatform(seed int64) Platform { return &vtime.Sim{Seed: seed} }

// NewRealPlatform returns the wall-clock goroutine platform.
func NewRealPlatform(seed int64) Platform { return &vtime.Real{Seed: seed} }

// engines is the one table of engine names: the serial reference and the six
// schedulers the paper's evaluation compares (the cut-off baselines are
// Figure 9's), then what this repository adds — the help-first policy, the
// SLAW-like adaptive policy switcher from the related work, and Tascell with
// single-iteration extraction (the paper's plain-recursion rule). Every front
// end resolves names here. A row that also implements the resident pool's
// engine interface can be hosted on a pool (all but serial and the two
// Tascells, which bring their own runtimes): that is a type assertion on the
// row, not a second list.
var engines = []Engine{
	NewSerial(), NewCilk(), NewCilkSynched(), NewTascell(), NewAdaptiveTC(),
	NewCutoffProgrammer(), NewCutoffLibrary(),
	NewHelpFirst(), NewSLAW(), NewTascellSingle(),
}

// paperEngines is how many rows of the table are the paper's.
const paperEngines = 7

// Engines returns every scheduler of the paper, serial first — the set the
// evaluation compares (plus the cut-off baselines of Figure 9).
func Engines() []Engine { return slices.Clone(engines[:paperEngines]) }

// ExtensionEngines returns the schedulers this repository adds beyond the
// paper's comparison set.
func ExtensionEngines() []Engine { return slices.Clone(engines[paperEngines:]) }

// EngineNames lists every name EngineByName resolves, in table order.
func EngineNames() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name()
	}
	return names
}

// PoolEngineNames lists, sorted, the names whose rows can be hosted on a
// resident worker pool (internal/serve, adaptivetc-chaos).
func PoolEngineNames() []string {
	var names []string
	for _, e := range engines {
		if _, ok := e.(wsrt.PoolEngine); ok {
			names = append(names, e.Name())
		}
	}
	slices.Sort(names)
	return names
}

// EngineByName resolves one of EngineNames.
func EngineByName(name string) (Engine, error) {
	for _, e := range engines {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("adaptivetc: unknown engine %q (have %v)", name, EngineNames())
}
