package adaptivetc_test

import (
	"testing"

	"adaptivetc"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/pentomino"
	"adaptivetc/problems/registry"
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
// serial first-solution run (sched.Walker.FirstSolution) — were recorded
// before the move loops stopped charging each candidate move on its own;
// with them every move loop in the repository, each charging through
// sched.Walker.ChargeMoves or Tascell's level loop, is pinned by a literal
// makespan. Edit them only for a change that is meant to move the Sim, and
// say so in the PR. The policy column "first-solution" runs with
// Options.FirstSolution.
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

// TestPaperSimPinned pins the benchmark's paper-sim shape: the six paper
// engines × nqueens-array(10), sudoku-balanced(42), tree3(20000) and fib(22)
// at P = 8, seed 1, Cutoff 3. Unlike the P = 4 rows above, its tree3 rows
// make the cut-off baselines fail 128–140 k steals, so an idle thief's
// retry path is pinned at the scale it runs. Alongside: one profiled tree3
// row (phase times, StealTime included) and the exact panic of the first
// idle thief to cross VirtualLimit. Recorded before the Sim core learnt to
// retry a failed steal in place; edit only for a change meant to move the
// Sim.
func TestPaperSimPinned(t *testing.T) {
	rows := []struct {
		engine, prog    string
		value, makespan int64
		stats           adaptivetc.Stats
	}{
		{"cilk", "nqueens-array", 724, 1042577, adaptivetc.Stats{Nodes: 35539, TasksCreated: 35539, FakeTasks: 0, SpecialTasks: 0, Steals: 155, StealFails: 46, WorkspaceCopies: 35538, WorkspaceBytes: 2061204, Suspends: 54}},
		{"cilk", "sudoku-balanced", 28, 1371446, adaptivetc.Stats{Nodes: 40241, TasksCreated: 40241, FakeTasks: 0, SpecialTasks: 0, Steals: 204, StealFails: 66, WorkspaceCopies: 40240, WorkspaceBytes: 7605360, Suspends: 143}},
		{"cilk", "tree3", 20000, 4984521, adaptivetc.Stats{Nodes: 33178, TasksCreated: 33178, FakeTasks: 0, SpecialTasks: 0, Steals: 119, StealFails: 96, WorkspaceCopies: 33177, WorkspaceBytes: 4246656, Suspends: 44}},
		{"cilk", "fib", 17711, 604885, adaptivetc.Stats{Nodes: 57313, TasksCreated: 57313, FakeTasks: 0, SpecialTasks: 0, Steals: 126, StealFails: 76, WorkspaceCopies: 0, WorkspaceBytes: 0, Suspends: 81}},
		{"cilk-synched", "nqueens-array", 724, 844124, adaptivetc.Stats{Nodes: 35539, TasksCreated: 35539, FakeTasks: 0, SpecialTasks: 0, Steals: 175, StealFails: 59, WorkspaceCopies: 35538, WorkspaceBytes: 2061204, Suspends: 60}},
		{"cilk-synched", "sudoku-balanced", 28, 1146269, adaptivetc.Stats{Nodes: 40241, TasksCreated: 40241, FakeTasks: 0, SpecialTasks: 0, Steals: 182, StealFails: 112, WorkspaceCopies: 40240, WorkspaceBytes: 7605360, Suspends: 120}},
		{"cilk-synched", "tree3", 20000, 4796244, adaptivetc.Stats{Nodes: 33178, TasksCreated: 33178, FakeTasks: 0, SpecialTasks: 0, Steals: 104, StealFails: 80, WorkspaceCopies: 33177, WorkspaceBytes: 4246656, Suspends: 40}},
		{"cilk-synched", "fib", 17711, 604885, adaptivetc.Stats{Nodes: 57313, TasksCreated: 57313, FakeTasks: 0, SpecialTasks: 0, Steals: 126, StealFails: 76, WorkspaceCopies: 0, WorkspaceBytes: 0, Suspends: 81}},
		{"tascell", "nqueens-array", 724, 736690, adaptivetc.Stats{Nodes: 35539, TasksCreated: 0, FakeTasks: 0, SpecialTasks: 0, Steals: 46, StealFails: 69, WorkspaceCopies: 46, WorkspaceBytes: 2668, Suspends: 0, Requests: 46}},
		{"tascell", "sudoku-balanced", 28, 716520, adaptivetc.Stats{Nodes: 40241, TasksCreated: 0, FakeTasks: 0, SpecialTasks: 0, Steals: 54, StealFails: 44, WorkspaceCopies: 54, WorkspaceBytes: 10206, Suspends: 0, Requests: 54}},
		{"tascell", "tree3", 20000, 4978719, adaptivetc.Stats{Nodes: 33178, TasksCreated: 0, FakeTasks: 0, SpecialTasks: 0, Steals: 146, StealFails: 81, WorkspaceCopies: 146, WorkspaceBytes: 18688, Suspends: 0, Requests: 146}},
		{"tascell", "fib", 17711, 238700, adaptivetc.Stats{Nodes: 57313, TasksCreated: 0, FakeTasks: 0, SpecialTasks: 0, Steals: 34, StealFails: 47, WorkspaceCopies: 0, WorkspaceBytes: 0, Suspends: 0, Requests: 34}},
		{"adaptivetc", "nqueens-array", 724, 444898, adaptivetc.Stats{Nodes: 35539, TasksCreated: 83, FakeTasks: 35456, SpecialTasks: 0, Steals: 145, StealFails: 153, WorkspaceCopies: 446, WorkspaceBytes: 25868, Suspends: 32}},
		{"adaptivetc", "sudoku-balanced", 28, 545897, adaptivetc.Stats{Nodes: 40241, TasksCreated: 619, FakeTasks: 39683, SpecialTasks: 61, Steals: 212, StealFails: 1415, WorkspaceCopies: 631, WorkspaceBytes: 119259, Suspends: 148}},
		{"adaptivetc", "tree3", 20000, 6915185, adaptivetc.Stats{Nodes: 33178, TasksCreated: 7569, FakeTasks: 25994, SpecialTasks: 385, Steals: 3317, StealFails: 44925, WorkspaceCopies: 8027, WorkspaceBytes: 1027456, Suspends: 1562}},
		{"adaptivetc", "fib", 17711, 373085, adaptivetc.Stats{Nodes: 57313, TasksCreated: 1745, FakeTasks: 55654, SpecialTasks: 86, Steals: 194, StealFails: 3460, WorkspaceCopies: 0, WorkspaceBytes: 0, Suspends: 120}},
		{"cutoff-programmer", "nqueens-array", 724, 437190, adaptivetc.Stats{Nodes: 35539, TasksCreated: 83, FakeTasks: 0, SpecialTasks: 0, Steals: 141, StealFails: 173, WorkspaceCopies: 446, WorkspaceBytes: 25868, Suspends: 33}},
		{"cutoff-programmer", "sudoku-balanced", 28, 527381, adaptivetc.Stats{Nodes: 40241, TasksCreated: 23, FakeTasks: 0, SpecialTasks: 0, Steals: 52, StealFails: 1721, WorkspaceCopies: 58, WorkspaceBytes: 10962, Suspends: 21}},
		{"cutoff-programmer", "tree3", 20000, 10695553, adaptivetc.Stats{Nodes: 33178, TasksCreated: 46, FakeTasks: 0, SpecialTasks: 0, Steals: 29, StealFails: 127780, WorkspaceCopies: 183, WorkspaceBytes: 23424, Suspends: 9}},
		{"cutoff-programmer", "fib", 17711, 311671, adaptivetc.Stats{Nodes: 57313, TasksCreated: 7, FakeTasks: 0, SpecialTasks: 0, Steals: 14, StealFails: 2916, WorkspaceCopies: 0, WorkspaceBytes: 0, Suspends: 7}},
		{"cutoff-library", "nqueens-array", 724, 781883, adaptivetc.Stats{Nodes: 35539, TasksCreated: 83, FakeTasks: 0, SpecialTasks: 0, Steals: 133, StealFails: 141, WorkspaceCopies: 35538, WorkspaceBytes: 2061204, Suspends: 32}},
		{"cutoff-library", "sudoku-balanced", 28, 1391751, adaptivetc.Stats{Nodes: 40241, TasksCreated: 23, FakeTasks: 0, SpecialTasks: 0, Steals: 51, StealFails: 6652, WorkspaceCopies: 40240, WorkspaceBytes: 7605360, Suspends: 20}},
		{"cutoff-library", "tree3", 20000, 11746933, adaptivetc.Stats{Nodes: 33178, TasksCreated: 46, FakeTasks: 0, SpecialTasks: 0, Steals: 29, StealFails: 140392, WorkspaceCopies: 33177, WorkspaceBytes: 4246656, Suspends: 9}},
		{"cutoff-library", "fib", 17711, 311671, adaptivetc.Stats{Nodes: 57313, TasksCreated: 7, FakeTasks: 0, SpecialTasks: 0, Steals: 14, StealFails: 2916, WorkspaceCopies: 0, WorkspaceBytes: 0, Suspends: 7}},
	}
	if len(rows) != 6*4 {
		t.Fatalf("%d rows for 6 paper engines x 4 programs", len(rows))
	}
	params := map[string]registry.Params{
		"nqueens-array": {N: 10}, "sudoku-balanced": {N: 42}, "tree3": {Size: 20000}, "fib": {N: 22},
	}
	opt := adaptivetc.Options{Workers: 8, Seed: 1, Cutoff: 3}
	for _, r := range rows {
		e, err := adaptivetc.EngineByName(r.engine)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := registry.Build(r.prog, params[r.prog])
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(prog, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.engine, r.prog, err)
		}
		s := res.Stats
		got := adaptivetc.Stats{
			Nodes: s.Nodes, TasksCreated: s.TasksCreated, FakeTasks: s.FakeTasks, SpecialTasks: s.SpecialTasks,
			Steals: s.Steals, StealFails: s.StealFails, WorkspaceCopies: s.WorkspaceCopies, WorkspaceBytes: s.WorkspaceBytes,
			Suspends: s.Suspends, Requests: s.Requests,
		}
		if res.Value != r.value || res.Makespan != r.makespan || got != r.stats {
			t.Errorf("%s/%s drifted:\n got value %d makespan %d %+v\nwant value %d makespan %d %+v",
				r.engine, r.prog, res.Value, res.Makespan, got, r.value, r.makespan, r.stats)
		}
	}

	tree3, err := registry.Build("tree3", params["tree3"])
	if err != nil {
		t.Fatal(err)
	}
	profiled := opt
	profiled.Profile = true
	res, err := wsrt.CutoffProgrammer.Run(tree3, profiled)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	got := adaptivetc.Stats{
		WorkTime: s.WorkTime, CopyTime: s.CopyTime, DequeTime: s.DequeTime, PollTime: s.PollTime,
		WaitTime: s.WaitTime, StealTime: s.StealTime, RespondTime: s.RespondTime, WorkerTime: s.WorkerTime,
	}
	want := adaptivetc.Stats{WorkTime: 34413638, CopyTime: 18666, DequeTime: 6735, PollTime: 0, WaitTime: 0, StealTime: 51123600, RespondTime: 0, WorkerTime: 85562639}
	if res.Makespan != 10695553 || got != want {
		t.Errorf("profiled cutoff-programmer/tree3 drifted:\n got makespan %d %+v\nwant makespan 10695553 %+v", res.Makespan, got, want)
	}

	// At 5 ms of virtual time worker 7 is an idle thief; the Steal charge of
	// its next attempt is what crosses the limit.
	limited := opt
	limited.VirtualLimit = 5_000_000
	const wantPanic = "vtime: worker 7 exceeded virtual time limit 5000000ns (livelocked engine?)"
	func() {
		defer func() {
			if r := recover(); r != wantPanic {
				t.Errorf("VirtualLimit 5ms: panic %v, want %q", r, wantPanic)
			}
		}()
		wsrt.CutoffProgrammer.Run(tree3, limited)
	}()
}

// TestPaperSimTraceOnOff holds paper-sim's tree3 shape (P = 8, seed 1,
// Cutoff 3) to one schedule whether or not a trace recorder is attached. A
// recorder installs each deque's trace hook, and a deque with a hook takes
// the locked steal path on every attempt, while an untraced Sim thief fails
// an empty victim without its lock (deque.FailEmpty). The two paths must
// charge, draw and signal alike, so value, makespan and every Stats counter
// agree. The cut-off baselines fail 128–140 k steals here.
func TestPaperSimTraceOnOff(t *testing.T) {
	tree3, err := registry.Build("tree3", registry.Params{Size: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range adaptivetc.Engines()[1:] {
		t.Run(e.Name(), func(t *testing.T) {
			opt := adaptivetc.Options{Workers: 8, Seed: 1, Cutoff: 3}
			plain, err := e.Run(tree3, opt)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder()
			defer rec.Release()
			opt.Tracer = rec
			traced, err := e.Run(tree3, opt)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Value != plain.Value || traced.Makespan != plain.Makespan || traced.Stats != plain.Stats {
				t.Errorf("traced run diverged:\n traced value %d makespan %d %+v\nuntraced value %d makespan %d %+v",
					traced.Value, traced.Makespan, traced.Stats, plain.Value, plain.Makespan, plain.Stats)
			}
		})
	}
}
