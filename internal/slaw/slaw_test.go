package slaw

import (
	"fmt"
	"testing"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// tri is a ternary tree of the given height with value = leaf count.
type tri struct{ height int }

type triWS struct{ d int }

func (w *triWS) Clone() sched.Workspace { c := *w; return &c }
func (w *triWS) Bytes() int             { return 40 }

func (p tri) Name() string          { return fmt.Sprintf("tri(%d)", p.height) }
func (p tri) Root() sched.Workspace { return &triWS{} }
func (p tri) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == p.height {
		return 1, true
	}
	return 0, false
}
func (p tri) Moves(sched.Workspace, int) int         { return 3 }
func (p tri) Apply(w sched.Workspace, d, m int) bool { w.(*triWS).d++; return true }
func (p tri) Undo(w sched.Workspace, d, m int)       { w.(*triWS).d-- }

func pow3(h int) int64 {
	v := int64(1)
	for i := 0; i < h; i++ {
		v *= 3
	}
	return v
}

func TestPoliciesMatchSerial(t *testing.T) {
	p := tri{height: 8}
	want := pow3(8)
	for _, e := range []*wsrt.Strategy{NewHelpFirst(), wsrt.Cilk, New()} {
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := e.Run(p, sched.Options{Workers: workers, Seed: int64(workers)})
			if err != nil {
				t.Fatalf("%s P=%d: %v", e.Name(), workers, err)
			}
			if res.Value != want {
				t.Errorf("%s P=%d: value %d, want %d", e.Name(), workers, res.Value, want)
			}
		}
	}
}

func TestHelpFirstQueuesChildren(t *testing.T) {
	p := tri{height: 7}
	res, err := NewHelpFirst().Run(p, sched.Options{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With one worker all children are queued and popped back: the deque
	// high-water mark should reflect breadth (≥ height × (arity-1)).
	if res.Stats.MaxDequeDepth < 7*2 {
		t.Errorf("help-first deque depth %d too small", res.Stats.MaxDequeDepth)
	}
	wf, err := wsrt.Cilk.Run(p, sched.Options{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Stats.MaxDequeDepth >= res.Stats.MaxDequeDepth {
		t.Errorf("work-first deque depth %d not below help-first %d",
			wf.Stats.MaxDequeDepth, res.Stats.MaxDequeDepth)
	}
}

func TestAdaptiveBetweenExtremes(t *testing.T) {
	p := tri{height: 9}
	hf, _ := NewHelpFirst().Run(p, sched.Options{Workers: 8, Seed: 2})
	wf, _ := wsrt.Cilk.Run(p, sched.Options{Workers: 8, Seed: 2})
	ad, _ := New().Run(p, sched.Options{Workers: 8, Seed: 2})
	if hf.Value != wf.Value || wf.Value != ad.Value {
		t.Fatalf("values diverge: %d/%d/%d", hf.Value, wf.Value, ad.Value)
	}
	t.Logf("makespans: helpfirst=%d workfirst=%d adaptive=%d", hf.Makespan, wf.Makespan, ad.Makespan)
	// The adaptive policy must not be drastically worse than the better
	// fixed policy (it should capture most of the benefit of each).
	best := hf.Makespan
	if wf.Makespan < best {
		best = wf.Makespan
	}
	if float64(ad.Makespan) > 1.5*float64(best) {
		t.Errorf("adaptive makespan %d is >1.5x the best fixed policy %d", ad.Makespan, best)
	}
}

func TestDeterministic(t *testing.T) {
	p := tri{height: 8}
	a, _ := New().Run(p, sched.Options{Workers: 5, Seed: 7})
	b, _ := New().Run(p, sched.Options{Workers: 5, Seed: 7})
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatal("nondeterministic")
	}
}

func TestNames(t *testing.T) {
	if New().Name() != "slaw" || NewHelpFirst().Name() != "helpfirst" {
		t.Fatal("names changed")
	}
}
