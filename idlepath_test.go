package adaptivetc_test

import (
	"sync/atomic"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/vtime"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/sudoku"
	"adaptivetc/problems/synthtree"
)

// procCounts tallies what the workers of one run asked of their Procs: Now
// calls, Advance calls, the sum of the amounts passed to Advance, and Yield
// calls.
type procCounts struct {
	now, advances, amount, yields atomic.Int64
}

// countingPlatform hands every worker a Proc that counts into c.
type countingPlatform struct {
	vtime.Platform
	c *procCounts
}

func (c countingPlatform) Run(n int, body func(vtime.Proc)) int64 {
	return c.Platform.Run(n, func(p vtime.Proc) { body(&countingProc{Proc: p, c: c.c}) })
}

type countingProc struct {
	vtime.Proc
	c *procCounts
}

func (p *countingProc) Now() int64 {
	p.c.now.Add(1)
	return p.Proc.Now()
}

func (p *countingProc) Advance(d int64) {
	p.c.advances.Add(1)
	p.c.amount.Add(d)
	p.Proc.Advance(d)
}

func (p *countingProc) Yield() {
	p.c.yields.Add(1)
	p.Proc.Yield()
}

// TestWrappedRealProcCharged: workers skip Advance and Yield only on the
// wall-clock Proc itself (vtime.Charges), never on a Proc that wraps one. On
// one worker, where no schedule can differ, every engine makes the same
// calls with the same amounts on a wrapped Real Proc as on a wrapped Sim
// Proc, and for nqueens-compute the amounts include its per-node cost.
func TestWrappedRealProcCharged(t *testing.T) {
	p := nqueens.NewCompute(7)
	for _, e := range append([]adaptivetc.Engine{adaptivetc.NewSerial()}, parallelEngines()...) {
		var sim, real procCounts
		for _, run := range []struct {
			plat adaptivetc.Platform
			c    *procCounts
		}{
			{adaptivetc.NewSimPlatform(3), &sim},
			{adaptivetc.NewRealPlatform(3), &real},
		} {
			if _, err := e.Run(p, adaptivetc.Options{Workers: 1, Seed: 3, Platform: countingPlatform{run.plat, run.c}}); err != nil {
				t.Fatalf("%s on %s: %v", e.Name(), run.plat.Name(), err)
			}
		}
		got := [3]int64{real.advances.Load(), real.amount.Load(), real.yields.Load()}
		want := [3]int64{sim.advances.Load(), sim.amount.Load(), sim.yields.Load()}
		if got != want || want[0] == 0 || want[2] == 0 {
			t.Errorf("%s: wrapped Real Proc saw (advances, amount, yields) = %v, wrapped Sim Proc %v", e.Name(), got, want)
		}
	}
}

// TestNoClockOnUnprofiledPath is the guard for the fake-task fast path: with
// Options.Profile off, no engine reads the clock per node. Each worker stamps
// its start and its exit and that is all, however large the tree — on the
// Real platform a clock read is a vDSO call, and two of them per fake task
// were a sixth of AdaptiveTC's run time.
func TestNoClockOnUnprofiledPath(t *testing.T) {
	const workers = 4
	for _, e := range parallelEngines() {
		for _, p := range []adaptivetc.Program{nqueens.NewArray(6), nqueens.NewArray(9)} {
			var c procCounts
			res, err := e.Run(p, adaptivetc.Options{
				Workers:  workers,
				Platform: countingPlatform{adaptivetc.NewSimPlatform(3), &c},
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name(), p.Name(), err)
			}
			if got := c.now.Load(); got > 2*workers {
				t.Errorf("%s on %s: %d clock reads over %d nodes with Profile off, want at most %d (two per worker)",
					e.Name(), p.Name(), got, res.Stats.Nodes, 2*workers)
			}
			if res.Stats.Parks != 0 || res.Stats.Wakes != 0 {
				t.Errorf("%s on %s: Parks = %d, Wakes = %d under Sim, want 0: nothing parks in virtual time",
					e.Name(), p.Name(), res.Stats.Parks, res.Stats.Wakes)
			}
		}
	}
}

// TestProfiledRunStillTimesPollAndWait checks the other half: the poll and
// the special-task join are still accounted when the profile is on.
func TestProfiledRunStillTimesPollAndWait(t *testing.T) {
	var c procCounts
	res, err := adaptivetc.NewAdaptiveTC().Run(synthtree.New(synthtree.Tree3(30000)), adaptivetc.Options{
		Workers:  4,
		Profile:  true,
		Platform: countingPlatform{adaptivetc.NewSimPlatform(3), &c},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PollTime <= 0 || res.Stats.WaitTime <= 0 {
		t.Errorf("PollTime = %d, WaitTime = %d, want both positive on a profiled run", res.Stats.PollTime, res.Stats.WaitTime)
	}
	if c.now.Load() < res.Stats.Polls {
		t.Errorf("%d clock reads for %d polls: the profiled poll is not timed", c.now.Load(), res.Stats.Polls)
	}
}

// TestMoveChargesBatched pins every move loop's clock charges on 4 Sim
// workers: the number of Advance calls and the sum of their amounts, per
// engine and program. The amounts and the parent's call counts were
// recorded while every candidate move was charged on its own. The amounts
// must not move — they are the virtual work of the run — and a loop that
// charges a run of rejected moves with the accepted one after it makes
// under 60 % of the calls.
func TestMoveChargesBatched(t *testing.T) {
	engines := map[string]adaptivetc.Engine{"serial": adaptivetc.NewSerial()}
	for _, e := range parallelEngines() {
		engines[e.Name()] = e
	}
	progs := map[string]adaptivetc.Program{
		"nqueens-array(9)":  nqueens.NewArray(9),
		"sudoku-input1(50)": sudoku.Input1(3, 50),
	}
	rows := []struct {
		prog, engine               string
		amount, calls, parentCalls int64
	}{
		{"nqueens-array(9)", "serial", 704934, 23996, 80772},
		{"nqueens-array(9)", "cilk", 1879705, 57612, 114388},
		{"nqueens-array(9)", "cilk-synched", 1501605, 57610, 114386},
		{"nqueens-array(9)", "tascell", 1031835, 32442, 89215},
		{"nqueens-array(9)", "adaptivetc", 758978, 32305, 89081},
		{"nqueens-array(9)", "cutoff-programmer", 745759, 24283, 81059},
		{"nqueens-array(9)", "cutoff-library", 1397785, 32636, 89412},
		{"nqueens-array(9)", "helpfirst", 1874195, 57604, 114380},
		{"nqueens-array(9)", "slaw", 1883335, 57623, 114399},
		{"sudoku-input1(50)", "serial", 1482075, 48121, 170331},
		{"sudoku-input1(50)", "cilk", 4636210, 116399, 238609},
		{"sudoku-input1(50)", "cilk-synched", 3868140, 116400, 238610},
		{"sudoku-input1(50)", "tascell", 2170321, 65287, 187486},
		{"sudoku-input1(50)", "adaptivetc", 2585441, 67103, 189313},
		{"sudoku-input1(50)", "cutoff-programmer", 2825063, 51509, 173719},
		{"sudoku-input1(50)", "cutoff-library", 6826090, 73318, 195528},
		{"sudoku-input1(50)", "helpfirst", 4640040, 116449, 238659},
		{"sudoku-input1(50)", "slaw", 4640040, 116449, 238659},
	}
	if len(rows) != len(engines)*len(progs) {
		t.Fatalf("%d rows for %d engines x %d programs", len(rows), len(engines), len(progs))
	}
	for _, r := range rows {
		var c procCounts
		_, err := engines[r.engine].Run(progs[r.prog], adaptivetc.Options{
			Workers:  4,
			Seed:     7,
			Platform: countingPlatform{adaptivetc.NewSimPlatform(7), &c},
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", r.prog, r.engine, err)
		}
		if amount, calls := c.amount.Load(), c.advances.Load(); amount != r.amount || calls != r.calls {
			t.Errorf("%s/%s: Advance called %d times for %d ns, want %d times for %d ns", r.prog, r.engine, calls, amount, r.calls, r.amount)
		}
		if 10*r.calls >= 6*r.parentCalls {
			t.Errorf("%s/%s: %d Advance calls, want under 60 %% of the %d a charge per move made", r.prog, r.engine, r.calls, r.parentCalls)
		}
	}
}

// TestRealIdleThievesPark pins the idle path's effect in the paper's own
// quantities: on the lopsided tree3 a second worker used to fail about
// 57 000 steals per run (one Gosched each) for a handful of successes. A
// thief that parks once it has raised need_task fails a few hundred times.
func TestRealIdleThievesPark(t *testing.T) {
	p := synthtree.New(synthtree.Tree3(60000))
	res, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{
		Workers:  2,
		Platform: adaptivetc.NewRealPlatform(7),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 60000 {
		t.Fatalf("value = %d, want 60000", res.Value)
	}
	if res.Stats.Parks < 1 {
		t.Errorf("Parks = %d, want at least 1", res.Stats.Parks)
	}
	if res.Stats.StealFails > 5700 {
		t.Errorf("StealFails = %d, want at most 5700 (a tenth of the 57 000 an always-yielding thief recorded)", res.Stats.StealFails)
	}
}
