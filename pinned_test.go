package adaptivetc_test

import (
	"testing"

	"adaptivetc"
	"adaptivetc/problems/sudoku"
)

// TestEngineStatsPinned pins the virtual-time schedule of every wsrt-based
// engine under both a single-steal and a batch-steal policy: the Sim is
// deterministic, so makespan and counters of one run are literal functions
// of the engine's spawn loop, the steal path and the cost model. The rows
// were recorded at the commit before the engines moved onto the shared
// wsrt.Fast kernel; edit them only for a change that is meant to move the
// Sim, and say so in the PR.
func TestEngineStatsPinned(t *testing.T) {
	engines := map[string]adaptivetc.Engine{}
	for _, e := range []adaptivetc.Engine{
		adaptivetc.NewCilk(), adaptivetc.NewCilkSynched(), adaptivetc.NewAdaptiveTC(),
		adaptivetc.NewCutoffProgrammer(), adaptivetc.NewCutoffLibrary(),
		adaptivetc.NewHelpFirst(), adaptivetc.NewSLAW(),
	} {
		engines[e.Name()] = e
	}
	rows := []struct {
		engine, policy  string
		value, makespan int64
		stats           adaptivetc.Stats
	}{
		{"cilk", "random", 31, 1159304, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 60, StealFails: 22, WorkspaceCopies: 17060, Suspends: 45}},
		{"cilk", "steal-half", 31, 1164620, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 362, StealFails: 40, WorkspaceCopies: 17060, Suspends: 277}},
		{"cilk-synched", "random", 31, 967344, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 57, StealFails: 24, WorkspaceCopies: 17060, Suspends: 43}},
		{"cilk-synched", "steal-half", 31, 967424, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 178, StealFails: 34, WorkspaceCopies: 17060, Suspends: 121}},
		{"adaptivetc", "random", 31, 664630, adaptivetc.Stats{Nodes: 17061, TasksCreated: 678, FakeTasks: 16472, SpecialTasks: 89, Steals: 190, StealFails: 2166, WorkspaceCopies: 747, Suspends: 134}},
		{"adaptivetc", "steal-half", 31, 772685, adaptivetc.Stats{Nodes: 17061, TasksCreated: 727, FakeTasks: 16451, SpecialTasks: 117, Steals: 233, StealFails: 3203, WorkspaceCopies: 760, Suspends: 181}},
		{"cutoff-programmer", "random", 31, 706627, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 3344, WorkspaceCopies: 11, Suspends: 4}},
		{"cutoff-programmer", "steal-half", 31, 706627, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 3344, WorkspaceCopies: 11, Suspends: 4}},
		{"cutoff-library", "random", 31, 1706757, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 8104, WorkspaceCopies: 17060, Suspends: 4}},
		{"cutoff-library", "steal-half", 31, 1706757, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 8104, WorkspaceCopies: 17060, Suspends: 4}},
		{"helpfirst", "random", 31, 1160325, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 43, StealFails: 47, WorkspaceCopies: 17060, Suspends: 77}},
		{"helpfirst", "steal-half", 31, 1158257, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 71, StealFails: 29, WorkspaceCopies: 17060, Suspends: 138}},
		{"slaw", "random", 31, 1160325, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 43, StealFails: 47, WorkspaceCopies: 17060, Suspends: 77}},
		{"slaw", "steal-half", 31, 1158129, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 89, StealFails: 21, WorkspaceCopies: 17060, Suspends: 152}},
	}
	if len(rows) != 2*len(engines) {
		t.Fatalf("%d rows for %d engines x 2 policies", len(rows), len(engines))
	}
	p := sudoku.Input1(3, 50)
	for _, r := range rows {
		res, err := engines[r.engine].Run(p, adaptivetc.Options{Workers: 4, Seed: 7, StealPolicy: r.policy})
		if err != nil {
			t.Fatalf("%s/%s: %v", r.engine, r.policy, err)
		}
		s := res.Stats
		got := adaptivetc.Stats{
			Nodes: s.Nodes, TasksCreated: s.TasksCreated, FakeTasks: s.FakeTasks, SpecialTasks: s.SpecialTasks,
			Steals: s.Steals, StealFails: s.StealFails, WorkspaceCopies: s.WorkspaceCopies, Suspends: s.Suspends,
		}
		if res.Value != r.value || res.Makespan != r.makespan || got != r.stats {
			t.Errorf("%s/%s drifted:\n got value %d makespan %d %+v\nwant value %d makespan %d %+v",
				r.engine, r.policy, res.Value, res.Makespan, got, r.value, r.makespan, r.stats)
		}
	}
}
