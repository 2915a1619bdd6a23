package sched

import (
	"fmt"
	"testing"

	"adaptivetc/internal/vtime"
)

// binTree is a minimal in-package test program: a perfect binary tree of
// the given height whose leaves are each worth 1.
type binTree struct{ height int }

type binWS struct{ depth int }

func (w *binWS) Clone() Workspace { c := *w; return &c }
func (w *binWS) Bytes() int       { return 16 }

func (b binTree) Name() string    { return fmt.Sprintf("bintree(%d)", b.height) }
func (b binTree) Root() Workspace { return &binWS{} }
func (b binTree) Terminal(w Workspace, depth int) (int64, bool) {
	if depth == b.height {
		return 1, true
	}
	return 0, false
}
func (b binTree) Moves(Workspace, int) int { return 2 }
func (b binTree) Apply(w Workspace, depth, m int) bool {
	w.(*binWS).depth++
	return true
}
func (b binTree) Undo(w Workspace, depth, m int) { w.(*binWS).depth-- }

func TestLogCutoff(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := LogCutoff(n); got != want {
			t.Errorf("LogCutoff(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.WorkersOrDefault() != 1 {
		t.Error("default workers != 1")
	}
	if o.MaxStolenNumOrDefault() != 20 {
		t.Error("default max_stolen_num != 20 (the paper's value)")
	}
	if o.Fast2MultiplierOrDefault() != 2 {
		t.Error("default fast_2 multiplier != 2")
	}
	if o.DequeCapacityOrDefault() != 8192 {
		t.Error("default deque capacity != 8192")
	}
	if got := o.CostsOrDefault(); got != DefaultCosts() {
		t.Error("default costs mismatch")
	}
	if o.CutoffFor(8) != 3 {
		t.Error("CutoffFor(8) != 3")
	}
	o.ForceCutoff, o.Cutoff = true, 7
	if o.CutoffFor(8) != 7 {
		t.Error("ForceCutoff ignored")
	}
	if o.PlatformOrDefault() == nil {
		t.Error("nil default platform")
	}
}

func TestSerialEngine(t *testing.T) {
	res, err := Serial{}.Run(binTree{height: 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 64 {
		t.Fatalf("value = %d, want 64", res.Value)
	}
	if res.Stats.Nodes != 127 {
		t.Fatalf("nodes = %d, want 127", res.Stats.Nodes)
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	// Virtual cost: 127 nodes × Node + 63 interiors × 2 moves × Move.
	c := DefaultCosts()
	want := 127*c.Node + 126*c.Move
	if res.Makespan != want {
		t.Fatalf("makespan = %d, want %d", res.Makespan, want)
	}
}

func TestSerialCosterCharged(t *testing.T) {
	p := costedTree{binTree{height: 3}}
	res, err := Serial{}.Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultCosts()
	base := 15*c.Node + 14*c.Move
	if res.Makespan != base+15*1000 {
		t.Fatalf("makespan = %d, want %d (coster not charged?)", res.Makespan, base+15*1000)
	}
}

type costedTree struct{ binTree }

func (costedTree) NodeCost(Workspace, int) int64 { return 1000 }

func TestAnalyze(t *testing.T) {
	st := Analyze(binTree{height: 4}, 0)
	if st.Nodes != 31 || st.Leaves != 16 || st.Depth != 4 {
		t.Fatalf("got %+v", st)
	}
	if len(st.Depth1) != 2 || st.Depth1[0] != 15 || st.Depth1[1] != 15 {
		t.Fatalf("depth-1 sizes = %v, want [15 15]", st.Depth1)
	}
	pct := st.Depth1Percent()
	if pct[0] < 48 || pct[0] > 49 {
		t.Fatalf("depth-1 percent = %v", pct)
	}
}

func TestAnalyzeTruncation(t *testing.T) {
	st := Analyze(binTree{height: 20}, 1000)
	if !st.Truncated {
		t.Fatal("expected truncation")
	}
	if st.Nodes > 1001 {
		t.Fatalf("visited %d nodes past the cap", st.Nodes)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Nodes: 1, Steals: 2, MaxDequeDepth: 5, WorkTime: 10}
	b := Stats{Nodes: 3, Steals: 4, MaxDequeDepth: 3, WorkTime: 7}
	a.Add(b)
	if a.Nodes != 4 || a.Steals != 6 || a.WorkTime != 17 {
		t.Fatalf("bad sum: %+v", a)
	}
	if a.MaxDequeDepth != 5 {
		t.Fatalf("MaxDequeDepth = %d, want max not sum", a.MaxDequeDepth)
	}
}

// TestDeriveWorkTime pins the one WorkTime derivation wsrt, Tascell and
// Serial share: every overhead component is subtracted — RespondTime too,
// which only Tascell charges — and the result is clamped at zero.
func TestDeriveWorkTime(t *testing.T) {
	cases := []struct {
		name string
		in   Stats
		want int64
	}{
		{"serial: all of it is work", Stats{WorkerTime: 100}, 100},
		{"respond time is overhead", Stats{WorkerTime: 100, CopyTime: 10, StealTime: 5, RespondTime: 15}, 70},
		{"tiny Tascell run clamps", Stats{WorkerTime: 40, PollTime: 30, RespondTime: 25}, 0},
	}
	for _, c := range cases {
		st := c.in
		st.DeriveWorkTime()
		if st.WorkTime != c.want {
			t.Errorf("%s: WorkTime = %d, want %d", c.name, st.WorkTime, c.want)
		}
	}
}

func TestWalkerSequenceMatchesSerial(t *testing.T) {
	p := binTree{height: 5}
	c := DefaultCosts()
	var w Walker
	var got int64
	(&vtime.Sim{}).Run(1, func(proc vtime.Proc) {
		w.Proc = proc
		w.Start(p, &c, nil)
		got = w.Sequence(p.Root(), 0)
	})
	if got != 32 {
		t.Fatalf("value = %d, want 32", got)
	}
	if st := w.Stats; st.Nodes != 63 {
		t.Fatalf("nodes = %d, want 63", st.Nodes)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Engine: "cilk", Program: "x", Workers: 2, Value: 9, Makespan: 1e6}
	if s := r.String(); s == "" {
		t.Fatal("empty string")
	}
}
