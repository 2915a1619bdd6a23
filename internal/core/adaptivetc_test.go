package core

import (
	"fmt"
	"testing"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/vtime"
	"adaptivetc/internal/wsrt"
)

// chain is a deliberately skewed test program: a unary spine of the given
// length with one leaf hanging off each spine node. Value = leaves.
type chain struct{ length int }

type chainWS struct{ stack []int }

func (w *chainWS) Clone() sched.Workspace {
	return &chainWS{stack: append([]int(nil), w.stack...)}
}
func (w *chainWS) Bytes() int { return 32 }

func (c chain) Name() string          { return fmt.Sprintf("chain(%d)", c.length) }
func (c chain) Root() sched.Workspace { return &chainWS{stack: []int{0}} }
func (c chain) Terminal(w sched.Workspace, depth int) (int64, bool) {
	s := w.(*chainWS)
	pos := s.stack[len(s.stack)-1]
	if pos >= c.length || pos < 0 {
		return 1, true
	}
	return 0, false
}
func (c chain) Moves(sched.Workspace, int) int { return 2 }
func (c chain) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*chainWS)
	pos := s.stack[len(s.stack)-1]
	if m == 0 {
		s.stack = append(s.stack, pos+1) // continue the spine
	} else {
		s.stack = append(s.stack, -1) // a leaf child
	}
	return true
}
func (c chain) Undo(w sched.Workspace, depth, m int) {
	s := w.(*chainWS)
	s.stack = s.stack[:len(s.stack)-1]
}

func run(t *testing.T, opt sched.Options, p sched.Program) sched.Result {
	t.Helper()
	res, err := New().Run(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChainValue(t *testing.T) {
	p := chain{length: 200}
	want := int64(201) // one leaf per spine node + the spine's terminal
	for _, workers := range []int{1, 2, 4, 8} {
		res := run(t, sched.Options{Workers: workers, Seed: int64(workers)}, p)
		if res.Value != want {
			t.Errorf("P=%d: value %d, want %d", workers, res.Value, want)
		}
	}
}

func TestCutoffControlsInitialTasks(t *testing.T) {
	// With needTask never firing (huge MaxStolenNum), only the fast region
	// creates tasks: for a binary-ish tree of depth D and cutoff c the
	// task count is bounded by the number of nodes above the cutoff.
	p := chain{length: 64}
	res := run(t, sched.Options{Workers: 4, MaxStolenNum: 1 << 30, Seed: 1}, p)
	cut := sched.LogCutoff(4)
	maxTasks := int64(1) << uint(cut+1) // generous bound on nodes above cutoff
	if res.Stats.TasksCreated > maxTasks {
		t.Errorf("tasks %d exceed fast-region bound %d (cutoff %d)", res.Stats.TasksCreated, maxTasks, cut)
	}
	if res.Stats.SpecialTasks != 0 {
		t.Errorf("special tasks fired with need_task disabled: %d", res.Stats.SpecialTasks)
	}
	if res.Stats.FakeTasks == 0 {
		t.Error("no fake tasks on a deep chain")
	}
}

func TestSpecialReopensChain(t *testing.T) {
	// On a pure chain the fast region exhausts immediately; with a
	// hair-trigger need_task the check version must emit special tasks and
	// thieves must actually steal their children.
	p := chain{length: 3000}
	res := run(t, sched.Options{Workers: 4, MaxStolenNum: 1, Seed: 2}, p)
	if res.Value != 3001 {
		t.Fatalf("value %d, want 3001", res.Value)
	}
	if res.Stats.SpecialTasks == 0 {
		t.Fatal("no special tasks on a starving chain")
	}
	if res.Stats.Steals == 0 {
		t.Fatal("no steals")
	}
}

func TestFast2MultiplierWidensTaskRegion(t *testing.T) {
	p := chain{length: 4000}
	base := sched.Options{Workers: 4, MaxStolenNum: 1, Seed: 3, Fast2Multiplier: 1}
	wide := base
	wide.Fast2Multiplier = 8
	a := run(t, base, p)
	b := run(t, wide, p)
	if a.Value != b.Value {
		t.Fatalf("values differ: %d vs %d", a.Value, b.Value)
	}
	if b.Stats.TasksCreated <= a.Stats.TasksCreated {
		t.Errorf("fast_2 ×8 created %d tasks, ×1 created %d — expected more",
			b.Stats.TasksCreated, a.Stats.TasksCreated)
	}
}

func TestForceCutoffZeroRunsFakeOnly(t *testing.T) {
	p := chain{length: 100}
	res := run(t, sched.Options{Workers: 1, Seed: 4}, p) // ⌈log2 1⌉ = 0
	if res.Stats.TasksCreated != 0 {
		t.Errorf("one worker created %d tasks; cutoff 0 should make everything fake", res.Stats.TasksCreated)
	}
	if res.Value != 101 {
		t.Errorf("value %d", res.Value)
	}
}

func TestResumeSpecialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on resuming a special frame")
		}
	}()
	x := &exec{}
	x.Resume(nil, &wsrt.Frame{Kind: wsrt.KindSpecial})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := chain{length: 500}
	opt := sched.Options{Workers: 6, MaxStolenNum: 2, Seed: 9}
	a := run(t, opt, p)
	b := run(t, opt, p)
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestRealPlatformChain(t *testing.T) {
	p := chain{length: 2000}
	res, err := New().Run(p, sched.Options{
		Workers:      8,
		MaxStolenNum: 1,
		Platform:     &vtime.Real{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2001 {
		t.Fatalf("value %d, want 2001", res.Value)
	}
}
