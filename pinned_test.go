package adaptivetc_test

import (
	"testing"

	"adaptivetc"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/pentomino"
	"adaptivetc/problems/sudoku"
)

// TestEngineStatsPinned pins the virtual-time schedule of every wsrt-based
// engine under both a single-steal and a batch-steal policy: the Sim is
// deterministic, so makespan and counters of one run are literal functions
// of the engine's spawn loop, the steal path and the cost model. The sudoku
// rows were recorded at the commit before the engines moved onto the shared
// wsrt.Fast kernel; the knight and pentomino rows (the two programs whose
// workspace holds an append-grown slice) at the commit that made their
// Bytes() a constant of the program, before any engine recycled a
// workspace. Edit them only for a change that is meant to move the Sim, and
// say so in the PR.
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
		prog, engine, policy string
		value, makespan      int64
		stats                adaptivetc.Stats
	}{
		{"sudoku", "cilk", "random", 31, 1159304, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 60, StealFails: 22, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 45}},
		{"sudoku", "cilk", "steal-half", 31, 1164620, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 362, StealFails: 40, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 277}},
		{"sudoku", "cilk-synched", "random", 31, 967344, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 57, StealFails: 24, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 43}},
		{"sudoku", "cilk-synched", "steal-half", 31, 967424, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 178, StealFails: 34, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 121}},
		{"sudoku", "adaptivetc", "random", 31, 664630, adaptivetc.Stats{Nodes: 17061, TasksCreated: 678, FakeTasks: 16472, SpecialTasks: 89, Steals: 190, StealFails: 2166, WorkspaceCopies: 747, WorkspaceBytes: 141183, Suspends: 134}},
		{"sudoku", "adaptivetc", "steal-half", 31, 772685, adaptivetc.Stats{Nodes: 17061, TasksCreated: 727, FakeTasks: 16451, SpecialTasks: 117, Steals: 233, StealFails: 3203, WorkspaceCopies: 760, WorkspaceBytes: 143640, Suspends: 181}},
		{"sudoku", "cutoff-programmer", "random", 31, 706627, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 3344, WorkspaceCopies: 11, WorkspaceBytes: 2079, Suspends: 4}},
		{"sudoku", "cutoff-programmer", "steal-half", 31, 706627, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 3344, WorkspaceCopies: 11, WorkspaceBytes: 2079, Suspends: 4}},
		{"sudoku", "cutoff-library", "random", 31, 1706757, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 8104, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 4}},
		{"sudoku", "cutoff-library", "steal-half", 31, 1706757, adaptivetc.Stats{Nodes: 17061, TasksCreated: 5, FakeTasks: 0, SpecialTasks: 0, Steals: 9, StealFails: 8104, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 4}},
		{"sudoku", "helpfirst", "random", 31, 1160325, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 43, StealFails: 47, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 77}},
		{"sudoku", "helpfirst", "steal-half", 31, 1158257, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 71, StealFails: 29, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 138}},
		{"sudoku", "slaw", "random", 31, 1160325, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 43, StealFails: 47, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 77}},
		{"sudoku", "slaw", "steal-half", 31, 1158129, adaptivetc.Stats{Nodes: 17061, TasksCreated: 17061, FakeTasks: 0, SpecialTasks: 0, Steals: 89, StealFails: 21, WorkspaceCopies: 17060, WorkspaceBytes: 3224340, Suspends: 152}},
		{"knight", "cilk", "random", 32, 1960286, adaptivetc.Stats{Nodes: 35661, TasksCreated: 35661, FakeTasks: 0, SpecialTasks: 0, Steals: 66, StealFails: 17, WorkspaceCopies: 35660, WorkspaceBytes: 2139600, Suspends: 40}},
		{"knight", "cilk-synched", "random", 32, 1556765, adaptivetc.Stats{Nodes: 35661, TasksCreated: 35661, FakeTasks: 0, SpecialTasks: 0, Steals: 42, StealFails: 16, WorkspaceCopies: 35660, WorkspaceBytes: 2139600, Suspends: 27}},
		{"knight", "adaptivetc", "random", 32, 1098643, adaptivetc.Stats{Nodes: 35661, TasksCreated: 871, FakeTasks: 34919, SpecialTasks: 129, Steals: 223, StealFails: 3024, WorkspaceCopies: 1001, WorkspaceBytes: 60060, Suspends: 144}},
		{"knight", "cutoff-programmer", "random", 32, 1029862, adaptivetc.Stats{Nodes: 35661, TasksCreated: 3, FakeTasks: 0, SpecialTasks: 0, Steals: 10, StealFails: 3245, WorkspaceCopies: 10, WorkspaceBytes: 600, Suspends: 3}},
		{"knight", "cutoff-library", "random", 32, 2069335, adaptivetc.Stats{Nodes: 35661, TasksCreated: 3, FakeTasks: 0, SpecialTasks: 0, Steals: 10, StealFails: 6509, WorkspaceCopies: 35660, WorkspaceBytes: 2139600, Suspends: 3}},
		{"knight", "helpfirst", "random", 32, 1956843, adaptivetc.Stats{Nodes: 35661, TasksCreated: 35661, FakeTasks: 0, SpecialTasks: 0, Steals: 40, StealFails: 8, WorkspaceCopies: 35660, WorkspaceBytes: 2139600, Suspends: 35}},
		{"knight", "slaw", "random", 32, 1957319, adaptivetc.Stats{Nodes: 35661, TasksCreated: 35661, FakeTasks: 0, SpecialTasks: 0, Steals: 43, StealFails: 10, WorkspaceCopies: 35660, WorkspaceBytes: 2139600, Suspends: 44}},
		{"pentomino", "cilk", "random", 16, 409945, adaptivetc.Stats{Nodes: 2955, TasksCreated: 2955, FakeTasks: 0, SpecialTasks: 0, Steals: 77, StealFails: 11, WorkspaceCopies: 2954, WorkspaceBytes: 236320, Suspends: 18}},
		{"pentomino", "cilk-synched", "random", 16, 379022, adaptivetc.Stats{Nodes: 2955, TasksCreated: 2955, FakeTasks: 0, SpecialTasks: 0, Steals: 84, StealFails: 25, WorkspaceCopies: 2954, WorkspaceBytes: 236320, Suspends: 21}},
		{"pentomino", "adaptivetc", "random", 16, 327487, adaptivetc.Stats{Nodes: 2955, TasksCreated: 58, FakeTasks: 2904, SpecialTasks: 7, Steals: 50, StealFails: 192, WorkspaceCopies: 251, WorkspaceBytes: 20080, Suspends: 13}},
		{"pentomino", "cutoff-programmer", "random", 16, 322466, adaptivetc.Stats{Nodes: 2955, TasksCreated: 23, FakeTasks: 0, SpecialTasks: 0, Steals: 45, StealFails: 178, WorkspaceCopies: 223, WorkspaceBytes: 17840, Suspends: 10}},
		{"pentomino", "cutoff-library", "random", 16, 382846, adaptivetc.Stats{Nodes: 2955, TasksCreated: 23, FakeTasks: 0, SpecialTasks: 0, Steals: 50, StealFails: 190, WorkspaceCopies: 2954, WorkspaceBytes: 236320, Suspends: 9}},
		{"pentomino", "helpfirst", "random", 16, 408840, adaptivetc.Stats{Nodes: 2955, TasksCreated: 2955, FakeTasks: 0, SpecialTasks: 0, Steals: 61, StealFails: 14, WorkspaceCopies: 2954, WorkspaceBytes: 236320, Suspends: 7}},
		{"pentomino", "slaw", "random", 16, 410072, adaptivetc.Stats{Nodes: 2955, TasksCreated: 2955, FakeTasks: 0, SpecialTasks: 0, Steals: 63, StealFails: 26, WorkspaceCopies: 2954, WorkspaceBytes: 236320, Suspends: 15}},
	}
	if len(rows) != 4*len(engines) {
		t.Fatalf("%d rows for %d engines x (sudoku x 2 policies + knight + pentomino)", len(rows), len(engines))
	}
	progs := map[string]adaptivetc.Program{
		"sudoku":    sudoku.Input1(3, 50),
		"knight":    knight.NewRect(5, 4, 0, 0),
		"pentomino": pentomino.NewBoard(5, 6, "FILNPT", "pinned"),
	}
	for _, r := range rows {
		res, err := engines[r.engine].Run(progs[r.prog], adaptivetc.Options{Workers: 4, Seed: 7, StealPolicy: r.policy})
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", r.prog, r.engine, r.policy, err)
		}
		s := res.Stats
		got := adaptivetc.Stats{
			Nodes: s.Nodes, TasksCreated: s.TasksCreated, FakeTasks: s.FakeTasks, SpecialTasks: s.SpecialTasks,
			Steals: s.Steals, StealFails: s.StealFails, WorkspaceCopies: s.WorkspaceCopies, WorkspaceBytes: s.WorkspaceBytes,
			Suspends: s.Suspends,
		}
		if res.Value != r.value || res.Makespan != r.makespan || got != r.stats {
			t.Errorf("%s/%s/%s drifted:\n got value %d makespan %d %+v\nwant value %d makespan %d %+v",
				r.prog, r.engine, r.policy, res.Value, res.Makespan, got, r.value, r.makespan, r.stats)
		}
	}
}
