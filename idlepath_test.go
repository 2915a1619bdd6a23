package adaptivetc_test

import (
	"sync/atomic"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/vtime"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/synthtree"
)

// countingPlatform hands every worker a Proc that counts its Now calls.
type countingPlatform struct {
	vtime.Platform
	now *atomic.Int64
}

func (c countingPlatform) Run(n int, body func(vtime.Proc)) int64 {
	return c.Platform.Run(n, func(p vtime.Proc) { body(&countingProc{Proc: p, now: c.now}) })
}

type countingProc struct {
	vtime.Proc
	now *atomic.Int64
}

func (p *countingProc) Now() int64 {
	p.now.Add(1)
	return p.Proc.Now()
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
			var now atomic.Int64
			res, err := e.Run(p, adaptivetc.Options{
				Workers:  workers,
				Platform: countingPlatform{adaptivetc.NewSimPlatform(3), &now},
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name(), p.Name(), err)
			}
			if got := now.Load(); got > 2*workers {
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
	var now atomic.Int64
	res, err := adaptivetc.NewAdaptiveTC().Run(synthtree.New(synthtree.Tree3(30000)), adaptivetc.Options{
		Workers:  4,
		Profile:  true,
		Platform: countingPlatform{adaptivetc.NewSimPlatform(3), &now},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PollTime <= 0 || res.Stats.WaitTime <= 0 {
		t.Errorf("PollTime = %d, WaitTime = %d, want both positive on a profiled run", res.Stats.PollTime, res.Stats.WaitTime)
	}
	if now.Load() < res.Stats.Polls {
		t.Errorf("%d clock reads for %d polls: the profiled poll is not timed", now.Load(), res.Stats.Polls)
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
