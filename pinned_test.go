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
// workspace. The last four rows — the two Tascells, the serial engine and a
// serial first-solution run (EvalFirstSolution) — were recorded before the
// move loops stopped charging each candidate move on its own; with them
// every move loop in the repository is pinned by a literal makespan. Edit
// them only for a change that is meant to move the Sim, and say so in the
// PR. The policy column "first-solution" runs with Options.FirstSolution.
func TestEngineStatsPinned(t *testing.T) {
	engines := map[string]adaptivetc.Engine{}
	for _, e := range []adaptivetc.Engine{
		adaptivetc.NewCilk(), adaptivetc.NewCilkSynched(), adaptivetc.NewAdaptiveTC(),
		adaptivetc.NewCutoffProgrammer(), adaptivetc.NewCutoffLibrary(),
		adaptivetc.NewHelpFirst(), adaptivetc.NewSLAW(),
		adaptivetc.NewTascell(), adaptivetc.NewTascellSingle(), adaptivetc.NewSerial(),
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
		{"sudoku", "tascell", "random", 31, 575341, adaptivetc.Stats{Nodes: 17061, Steals: 28, StealFails: 8, Requests: 28, WorkspaceCopies: 28, WorkspaceBytes: 5292}},
		{"sudoku", "tascell-single", "random", 31, 662445, adaptivetc.Stats{Nodes: 17061, Steals: 50, StealFails: 31, Requests: 50, WorkspaceCopies: 50, WorkspaceBytes: 9450}},
		{"sudoku", "serial", "random", 31, 1482075, adaptivetc.Stats{Nodes: 17061}},
		{"sudoku", "serial", "first-solution", 1, 3343, adaptivetc.Stats{Nodes: 57}},
	}
	if len(rows) != 4*7+4 {
		t.Fatalf("%d rows for 7 wsrt engines x (sudoku x 2 policies + knight + pentomino) + 4 sudoku rows", len(rows))
	}
	progs := map[string]adaptivetc.Program{
		"sudoku":    sudoku.Input1(3, 50),
		"knight":    knight.NewRect(5, 4, 0, 0),
		"pentomino": pentomino.NewBoard(5, 6, "FILNPT", "pinned"),
	}
	for _, r := range rows {
		opt := adaptivetc.Options{Workers: 4, Seed: 7, StealPolicy: r.policy}
		if r.policy == "first-solution" {
			opt.StealPolicy, opt.FirstSolution = "", true
		}
		res, err := engines[r.engine].Run(progs[r.prog], opt)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", r.prog, r.engine, r.policy, err)
		}
		s := res.Stats
		got := adaptivetc.Stats{
			Nodes: s.Nodes, TasksCreated: s.TasksCreated, FakeTasks: s.FakeTasks, SpecialTasks: s.SpecialTasks,
			Steals: s.Steals, StealFails: s.StealFails, WorkspaceCopies: s.WorkspaceCopies, WorkspaceBytes: s.WorkspaceBytes,
			Suspends: s.Suspends, Requests: s.Requests,
		}
		if res.Value != r.value || res.Makespan != r.makespan || got != r.stats {
			t.Errorf("%s/%s/%s drifted:\n got value %d makespan %d %+v\nwant value %d makespan %d %+v",
				r.prog, r.engine, r.policy, res.Value, res.Makespan, got, r.value, r.makespan, r.stats)
		}
	}
}

// TestProfiledStatsPinned pins every engine's per-phase times on the sudoku
// schedule above. A profiled run reads the clock around every task creation,
// copy, poll, steal, response and wait, so these are the clock values a
// worker observes in the middle of its move loops, not only at its exit.
// Recorded before the move loops stopped charging each candidate move on
// its own.
func TestProfiledStatsPinned(t *testing.T) {
	rows := []struct {
		engine   string
		makespan int64
		phases   adaptivetc.Stats
	}{
		{"cilk", 1159304, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 2098380, DequeTime: 1022955, PollTime: 0, WaitTime: 0, StealTime: 32800, RespondTime: 0, WorkerTime: 4636210}},
		{"cilk-synched", 967344, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 1330680, DequeTime: 1022985, PollTime: 0, WaitTime: 0, StealTime: 32400, RespondTime: 0, WorkerTime: 3868140}},
		{"adaptivetc", 664630, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 91881, DequeTime: 41505, PollTime: 27580, WaitTime: 72000, StealTime: 942400, RespondTime: 0, WorkerTime: 2657441}},
		{"cutoff-programmer", 706627, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 1353, DequeTime: 435, PollTime: 0, WaitTime: 0, StealTime: 1341200, RespondTime: 0, WorkerTime: 2825063}},
		{"cutoff-library", 1706757, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 2098380, DequeTime: 435, PollTime: 0, WaitTime: 0, StealTime: 3245200, RespondTime: 0, WorkerTime: 6826090}},
		{"helpfirst", 1160325, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 2098380, DequeTime: 1023585, PollTime: 0, WaitTime: 0, StealTime: 36000, RespondTime: 0, WorkerTime: 4640040}},
		{"slaw", 1160325, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 2098380, DequeTime: 1023585, PollTime: 0, WaitTime: 0, StealTime: 36000, RespondTime: 0, WorkerTime: 4640040}},
		{"tascell", 575341, adaptivetc.Stats{WorkTime: 1461031, CopyTime: 0, DequeTime: 630141, PollTime: 42905, WaitTime: 52000, StealTime: 86400, RespondTime: 25844, WorkerTime: 2298321}},
		{"tascell-single", 662445, adaptivetc.Stats{WorkTime: 1438325, CopyTime: 0, DequeTime: 630141, PollTime: 63211, WaitTime: 272000, StealTime: 196400, RespondTime: 46150, WorkerTime: 2646227}},
		{"serial", 1482075, adaptivetc.Stats{WorkTime: 1482075, CopyTime: 0, DequeTime: 0, PollTime: 0, WaitTime: 0, StealTime: 0, RespondTime: 0, WorkerTime: 1482075}},
	}
	for _, r := range rows {
		e, err := adaptivetc.EngineByName(r.engine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(sudoku.Input1(3, 50), adaptivetc.Options{Workers: 4, Seed: 7, Profile: true})
		if err != nil {
			t.Fatalf("%s: %v", r.engine, err)
		}
		s := res.Stats
		got := adaptivetc.Stats{
			WorkTime: s.WorkTime, CopyTime: s.CopyTime, DequeTime: s.DequeTime, PollTime: s.PollTime,
			WaitTime: s.WaitTime, StealTime: s.StealTime, RespondTime: s.RespondTime, WorkerTime: s.WorkerTime,
		}
		if res.Makespan != r.makespan || got != r.phases {
			t.Errorf("%s drifted:\n got makespan %d %+v\nwant makespan %d %+v", r.engine, res.Makespan, got, r.makespan, r.phases)
		}
	}
}
