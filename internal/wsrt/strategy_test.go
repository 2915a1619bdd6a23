package wsrt

import (
	"fmt"
	"testing"

	"adaptivetc/internal/sched"
)

// The four engines that are a Fast and nothing more (strategy.go), each held
// to what the paper says of it.

// tree is a perfect k-ary tree of the given height; value = leaf count.
type tree struct{ arity, height int }

type treeWS struct {
	depth int
	bytes int
}

func (w *treeWS) Clone() sched.Workspace { c := *w; return &c }
func (w *treeWS) Bytes() int             { return w.bytes }
func (w *treeWS) CopyFrom(src sched.Workspace) {
	*w = *(src.(*treeWS))
}

func (p tree) Name() string          { return fmt.Sprintf("tree(%d,%d)", p.arity, p.height) }
func (p tree) Root() sched.Workspace { return &treeWS{bytes: 64} }
func (p tree) Terminal(w sched.Workspace, depth int) (int64, bool) {
	if depth == p.height {
		return 1, true
	}
	return 0, false
}
func (p tree) Moves(sched.Workspace, int) int { return p.arity }
func (p tree) Apply(w sched.Workspace, depth, m int) bool {
	w.(*treeWS).depth++
	return true
}
func (p tree) Undo(w sched.Workspace, depth, m int) { w.(*treeWS).depth-- }

func leaves(arity, height int) int64 {
	v := int64(1)
	for i := 0; i < height; i++ {
		v *= int64(arity)
	}
	return v
}

func TestCilkValues(t *testing.T) {
	p := tree{arity: 3, height: 7}
	want := leaves(3, 7)
	for _, e := range []*Strategy{Cilk, CilkSynched} {
		for _, workers := range []int{1, 2, 5, 8} {
			res, err := e.Run(p, sched.Options{Workers: workers, Seed: int64(workers)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != want {
				t.Errorf("%s P=%d: %d, want %d", e.Name(), workers, res.Value, want)
			}
		}
	}
}

func TestCilkEveryNodeIsATask(t *testing.T) {
	p := tree{arity: 2, height: 8}
	res, err := Cilk.Run(p, sched.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := int64(1<<9 - 1) // full binary tree of height 8
	if res.Stats.Nodes != wantNodes {
		t.Fatalf("visited %d nodes, want %d", res.Stats.Nodes, wantNodes)
	}
	if res.Stats.TasksCreated != wantNodes {
		t.Errorf("tasks %d != nodes %d: Cilk must create a task per spawn", res.Stats.TasksCreated, wantNodes)
	}
	// Workspace copied for every spawn = every non-root node.
	if res.Stats.WorkspaceCopies != wantNodes-1 {
		t.Errorf("copies %d, want %d", res.Stats.WorkspaceCopies, wantNodes-1)
	}
}

func TestCilkSynchedCopiesSameBytesCheaper(t *testing.T) {
	p := tree{arity: 2, height: 10}
	plain, err := Cilk.Run(p, sched.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := CilkSynched.Run(p, sched.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.WorkspaceBytes != pooled.Stats.WorkspaceBytes {
		t.Errorf("bytes copied differ: %d vs %d (SYNCHED must still copy the data)",
			plain.Stats.WorkspaceBytes, pooled.Stats.WorkspaceBytes)
	}
	if pooled.Makespan >= plain.Makespan {
		t.Errorf("SYNCHED makespan %d not below plain Cilk %d (allocation saving missing)",
			pooled.Makespan, plain.Makespan)
	}
}

func TestCilkStealsHappenAndBalance(t *testing.T) {
	p := tree{arity: 4, height: 8}
	res, err := Cilk.Run(p, sched.Options{Workers: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steals == 0 {
		t.Fatal("no steals with 8 workers on a wide tree")
	}
	// On a zero-work tree Cilk's absolute speedup is overhead-bound, so
	// measure scalability against its own one-worker run.
	one, err := Cilk.Run(p, sched.Options{Workers: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	scaling := float64(one.Makespan) / float64(res.Makespan)
	if scaling < 4 {
		t.Errorf("self-scaling %.2f with 8 workers: load balancing broken", scaling)
	}
}

func TestCilkNames(t *testing.T) {
	if Cilk.Name() != "cilk" || CilkSynched.Name() != "cilk-synched" {
		t.Fatal("engine names changed")
	}
}

// spine hides most of the work below the cut-off: a chain of the given
// length where every node also has a small bushy side subtree.
type spine struct{ length, bushHeight int }

type spineWS struct{ stack []int32 }

func (w *spineWS) Clone() sched.Workspace {
	return &spineWS{stack: append([]int32(nil), w.stack...)}
}
func (w *spineWS) Bytes() int { return 48 }

// encoding: values ≥ 0 are spine positions; values < 0 encode remaining
// bush height -v-1.
func (p spine) Name() string          { return fmt.Sprintf("spine(%d,%d)", p.length, p.bushHeight) }
func (p spine) Root() sched.Workspace { return &spineWS{stack: []int32{0}} }
func (p spine) Terminal(w sched.Workspace, depth int) (int64, bool) {
	s := w.(*spineWS)
	top := s.stack[len(s.stack)-1]
	if top >= 0 && int(top) >= p.length {
		return 1, true
	}
	if top < 0 && int(-top-1) == 0 {
		return 1, true
	}
	return 0, false
}
func (p spine) Moves(sched.Workspace, int) int { return 2 }
func (p spine) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*spineWS)
	top := s.stack[len(s.stack)-1]
	var child int32
	if top >= 0 {
		if m == 0 {
			child = top + 1 // continue the spine
		} else {
			child = int32(-p.bushHeight - 1) // enter a bush
		}
	} else {
		child = top + 1 // descend the bush (height decreases)
	}
	s.stack = append(s.stack, child)
	return true
}
func (p spine) Undo(w sched.Workspace, depth, m int) {
	s := w.(*spineWS)
	s.stack = s.stack[:len(s.stack)-1]
}

func serialOf(t *testing.T, p sched.Program) sched.Result {
	t.Helper()
	res, err := sched.Serial{}.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCutoffValuesBothVariants(t *testing.T) {
	p := spine{length: 300, bushHeight: 5}
	want := serialOf(t, p).Value
	for _, e := range []*Strategy{CutoffProgrammer, CutoffLibrary} {
		for _, workers := range []int{1, 2, 4, 8} {
			opt := sched.Options{Workers: workers, Cutoff: 4, Seed: int64(workers)}
			res, err := e.Run(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != want {
				t.Errorf("%s P=%d: %d, want %d", e.Name(), workers, res.Value, want)
			}
		}
	}
}

func TestCutoffNoTasksBelowCutoff(t *testing.T) {
	p := spine{length: 100, bushHeight: 4}
	res, err := CutoffProgrammer.Run(p, sched.Options{Workers: 4, Cutoff: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes above depth 3 in this program: at most 2^0+2^1+2^2 = 7.
	if res.Stats.TasksCreated > 7 {
		t.Errorf("created %d tasks with cutoff 3, want ≤ 7", res.Stats.TasksCreated)
	}
}

func TestCutoffLibraryStillCopiesBelowCutoff(t *testing.T) {
	p := spine{length: 60, bushHeight: 4}
	prog, err := CutoffProgrammer.Run(p, sched.Options{Workers: 2, Cutoff: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := CutoffLibrary.Run(p, sched.Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lib.Stats.WorkspaceCopies <= prog.Stats.WorkspaceCopies {
		t.Errorf("library copies %d not above programmer copies %d — 'the cost of workspace copying cannot be reduced'",
			lib.Stats.WorkspaceCopies, prog.Stats.WorkspaceCopies)
	}
}

// TestCutoffStarvation: with the whole spine hidden below the cut-off, adding
// workers cannot help much — the defining weakness of Figure 9.
func TestCutoffStarvation(t *testing.T) {
	p := spine{length: 2000, bushHeight: 2}
	serial := serialOf(t, p)
	res2, err := CutoffProgrammer.Run(p, sched.Options{Workers: 2, Cutoff: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res8, err := CutoffProgrammer.Run(p, sched.Options{Workers: 8, Cutoff: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s2 := float64(serial.Makespan) / float64(res2.Makespan)
	s8 := float64(serial.Makespan) / float64(res8.Makespan)
	t.Logf("speedup: 2 workers %.2f, 8 workers %.2f", s2, s8)
	if s8 > s2*2 {
		t.Errorf("8 workers gave %.2f vs %.2f at 2 — cutoff should starve on a spine", s8, s2)
	}
}

func TestCutoffProgrammerCutoffFromOptions(t *testing.T) {
	p := spine{length: 40, bushHeight: 6}
	shallow, _ := CutoffProgrammer.Run(p, sched.Options{Workers: 2, Cutoff: 1, Seed: 2})
	deep, _ := CutoffProgrammer.Run(p, sched.Options{Workers: 2, Cutoff: 6, Seed: 2})
	if deep.Stats.TasksCreated <= shallow.Stats.TasksCreated {
		t.Errorf("cutoff 6 made %d tasks, cutoff 1 made %d", deep.Stats.TasksCreated, shallow.Stats.TasksCreated)
	}
}

func TestCutoffNames(t *testing.T) {
	if CutoffProgrammer.Name() != "cutoff-programmer" || CutoffLibrary.Name() != "cutoff-library" {
		t.Fatal("engine names changed")
	}
}
