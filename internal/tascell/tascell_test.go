package tascell

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/vtime"
	"adaptivetc/problems/nqueens"
)

// skewed is a two-child tree where the configured side holds almost all of
// the weight: heavyFirst=true puts the big subtree on iteration 0
// (left-heavy), false on the last iteration (right-heavy).
type skewed struct {
	total      int64
	heavyFirst bool
}

type skewWS struct{ stack []int64 }

func (w *skewWS) Clone() sched.Workspace {
	return &skewWS{stack: append([]int64(nil), w.stack...)}
}
func (w *skewWS) Bytes() int { return 64 }

func (p skewed) Name() string {
	return fmt.Sprintf("skewed(%d,heavyFirst=%v)", p.total, p.heavyFirst)
}
func (p skewed) Root() sched.Workspace { return &skewWS{stack: []int64{p.total}} }
func (p skewed) Terminal(w sched.Workspace, depth int) (int64, bool) {
	s := w.(*skewWS)
	if s.stack[len(s.stack)-1] <= 1 {
		return 1, true
	}
	return 0, false
}
func (p skewed) Moves(sched.Workspace, int) int { return 2 }
func (p skewed) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*skewWS)
	size := s.stack[len(s.stack)-1]
	heavy := size - size/8 // 7/8 of the weight
	light := size - heavy
	if light == 0 {
		light, heavy = 1, size-1
	}
	var child int64
	if (m == 0) == p.heavyFirst {
		child = heavy
	} else {
		child = light
	}
	if child == 0 {
		return false
	}
	s.stack = append(s.stack, child)
	return true
}
func (p skewed) Undo(w sched.Workspace, depth, m int) {
	s := w.(*skewWS)
	s.stack = s.stack[:len(s.stack)-1]
}

// NodeCost keeps per-node work meaningful relative to steal latency.
func (p skewed) NodeCost(sched.Workspace, int) int64 { return 700 }

func runT(t *testing.T, p sched.Program, workers int, profile bool) sched.Result {
	t.Helper()
	res, err := New().Run(p, sched.Options{Workers: workers, Seed: 5, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValuesAcrossWorkers(t *testing.T) {
	p := skewed{total: 30000, heavyFirst: true}
	serial, _ := sched.Serial{}.Run(p, sched.Options{})
	for _, workers := range []int{1, 2, 4, 8} {
		res := runT(t, p, workers, false)
		if res.Value != serial.Value {
			t.Errorf("P=%d: %d, want %d", workers, res.Value, serial.Value)
		}
	}
}

func TestNoTasksUntilRequested(t *testing.T) {
	p := skewed{total: 5000, heavyFirst: true}
	res := runT(t, p, 1, false)
	if res.Stats.WorkspaceCopies != 0 {
		t.Errorf("one worker copied %d workspaces; Tascell copies only on extraction", res.Stats.WorkspaceCopies)
	}
	if res.Stats.Requests != 0 || res.Stats.Steals != 0 {
		t.Error("phantom requests with a single worker")
	}
}

func TestExtractionCountsMatch(t *testing.T) {
	p := skewed{total: 60000, heavyFirst: true}
	res := runT(t, p, 8, false)
	if res.Stats.Steals == 0 {
		t.Fatal("no successful requests with 8 workers")
	}
	if res.Stats.Requests != res.Stats.Steals {
		t.Errorf("victim answered %d tasks but thieves received %d", res.Stats.Requests, res.Stats.Steals)
	}
	// One workspace clone per extracted task.
	if res.Stats.WorkspaceCopies != res.Stats.Requests {
		t.Errorf("copies %d != extractions %d", res.Stats.WorkspaceCopies, res.Stats.Requests)
	}
}

// TestRightHeavyWaitsMore is the §5.3.2 asymmetry at unit-test scale.
func TestRightHeavyWaitsMore(t *testing.T) {
	left := runT(t, skewed{total: 60000, heavyFirst: true}, 8, true)
	right := runT(t, skewed{total: 60000, heavyFirst: false}, 8, true)
	if left.Value != right.Value {
		t.Fatalf("mirror changed the answer: %d vs %d", left.Value, right.Value)
	}
	lw := float64(left.Stats.WaitTime) / float64(left.Stats.WorkerTime)
	rw := float64(right.Stats.WaitTime) / float64(right.Stats.WorkerTime)
	t.Logf("wait_children: left-heavy %.1f%%, right-heavy %.1f%%", 100*lw, 100*rw)
	if rw <= lw {
		t.Errorf("right-heavy wait share %.3f not above left-heavy %.3f", rw, lw)
	}
}

func TestDeterministic(t *testing.T) {
	p := skewed{total: 20000, heavyFirst: false}
	a := runT(t, p, 6, false)
	b := runT(t, p, 6, false)
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestHalvingLeavesWorkForVictim(t *testing.T) {
	// A single victim with one thief: after the first extraction the
	// victim must still hold at least as many iterations as it gave away
	// (keep = r/2, give = r - r/2 of the remainder, victim also keeps the
	// in-flight child).
	p := skewed{total: 40000, heavyFirst: true}
	res := runT(t, p, 2, false)
	if res.Stats.Steals == 0 {
		t.Skip("no extraction happened at this size/seed")
	}
	if res.Value != 0 {
		serial, _ := sched.Serial{}.Run(p, sched.Options{})
		if res.Value != serial.Value {
			t.Fatalf("value %d, want %d", res.Value, serial.Value)
		}
	}
}

func TestSingleGrainVariant(t *testing.T) {
	p := skewed{total: 40000, heavyFirst: true}
	serial, _ := sched.Serial{}.Run(p, sched.Options{})
	res, err := NewSingle().Run(p, sched.Options{Workers: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != serial.Value {
		t.Fatalf("value %d, want %d", res.Value, serial.Value)
	}
	half, err := New().Run(p, sched.Options{Workers: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// On a binary-split tree both grains give one iteration, so only check
	// both complete correctly and report distinct names.
	if half.Value != serial.Value {
		t.Fatalf("half-grain value %d, want %d", half.Value, serial.Value)
	}
	if NewSingle().Name() == New().Name() {
		t.Fatal("variants share a name")
	}
}

// TestStopReleasesWaits: the stop flag a failed run fires must release a
// worker waiting at a join whose stolen child will never deposit, and a thief
// waiting for a reply its victim will never send. Without the polls both
// would sleep until the Sim's livelock guard panics.
func TestStopReleasesWaits(t *testing.T) {
	cause := errors.New("co-worker failed")
	for _, tc := range []struct {
		name string
		wait func(tw *tworker)
	}{
		{"join", func(tw *tworker) { tw.waitJoin(&join{outstanding: 1}) }},
		{"reply", func(tw *tworker) { tw.idleLoop() }},
	} {
		rt := &runtime{
			costs:   sched.DefaultCosts(),
			n:       2,
			mail:    []chan *request{make(chan *request, 2), make(chan *request, 2)},
			pending: make([]atomic.Int64, 2),
			stop:    &sched.Stop{},
		}
		var got any
		(&vtime.Sim{Limit: 1e9}).Run(2, func(proc vtime.Proc) {
			if proc.ID() == 0 { // the failing co-worker, which answers nothing
				proc.Sleep(1e6)
				rt.stop.Signal(cause)
				return
			}
			tw := &tworker{Walker: sched.Walker{Proc: proc, ID: 1}, rt: rt}
			defer func() { got = recover() }()
			tc.wait(tw)
		})
		if ab, ok := got.(sched.Abort); !ok || !errors.Is(ab.Err, cause) {
			t.Errorf("%s: waiter ended with %v, want sched.Abort{%v}", tc.name, got, cause)
		}
	}
}

// TestSpineAllocBudget: the spine is a slab of levels, reused from node to
// node, so once it has grown to the tree's depth a node allocates nothing.
// A one-worker Sim run of 9-queens (no thief, so no clone and no join)
// must stay under the TestRecycleAllocBudget-style per-node budget; one
// level allocated per node is a whole allocation per node.
func TestSpineAllocBudget(t *testing.T) {
	const budget = 0.01 // heap objects per node
	p := nqueens.NewArray(9)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	res, err := New().Run(p, sched.Options{Workers: 1})
	goruntime.ReadMemStats(&after)
	if err != nil || res.Value != 352 {
		t.Fatalf("9-queens = %d, %v", res.Value, err)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Nodes)
	t.Logf("%d allocations over %d nodes", after.Mallocs-before.Mallocs, res.Stats.Nodes)
	if perNode > budget {
		t.Errorf("%.3f allocations per node over %d nodes, budget %v", perNode, res.Stats.Nodes, budget)
	}
}
