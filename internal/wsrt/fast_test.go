package wsrt

import (
	"fmt"
	"testing"

	"adaptivetc/internal/deque"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/vtime"
)

// splitProg is a lopsided tree for driving the kernel: a node of weight w
// hands (w-1)·3/5 to its first child and the rest to its third; the middle
// move is never legal, so the loop's skip branch runs at every node. The
// workspace carries the weight stack, has a payload (copies are charged) and
// is Reusable (Release really recycles it).
type splitProg struct{ weight int64 }

type splitWS struct{ stack []int64 }

func (w *splitWS) Clone() sched.Workspace { return &splitWS{stack: append([]int64(nil), w.stack...)} }
func (w *splitWS) Bytes() int             { return 8 * len(w.stack) }
func (w *splitWS) CopyFrom(src sched.Workspace) {
	w.stack = append(w.stack[:0], src.(*splitWS).stack...)
}

func (p splitProg) Name() string          { return fmt.Sprintf("split(%d)", p.weight) }
func (p splitProg) Root() sched.Workspace { return &splitWS{stack: []int64{p.weight}} }
func (p splitProg) Terminal(ws sched.Workspace, depth int) (int64, bool) {
	s := ws.(*splitWS).stack
	return 1, s[len(s)-1] <= 1
}
func (p splitProg) Moves(sched.Workspace, int) int { return 3 }
func (p splitProg) Apply(ws sched.Workspace, depth, m int) bool {
	s := ws.(*splitWS)
	rest := s.stack[len(s.stack)-1] - 1
	child := []int64{rest * 3 / 5, 0, rest - rest*3/5}[m]
	if child == 0 {
		return false
	}
	s.stack = append(s.stack, child)
	return true
}
func (p splitProg) Undo(ws sched.Workspace, depth, m int) {
	s := ws.(*splitWS)
	s.stack = s.stack[:len(s.stack)-1]
}

// underMarker enters a Fast the way AdaptiveTC's check version enters fast_2:
// the root runs as a fake task that creates a special task for itself and
// pushes the marker around each child, and every child starts the kernel at
// cutoff-relative depth 0 while its tree depth keeps counting.
type underMarker struct{ fast2 Fast }

func (x *underMarker) Root(w *Worker) (int64, bool) {
	prog := w.Prog()
	ws := prog.Root()
	w.Visit(ws, 0)
	if v, term := prog.Terminal(ws, 0); term {
		return v, true
	}
	w.ChargeTask()
	s := w.NewFrame(nil, ws, 0, 0, KindSpecial)
	var sum int64
	for m, n := 0, prog.Moves(ws, 0); m < n; m++ {
		if !prog.Apply(ws, 0, m) {
			continue
		}
		childWS := w.Clone(ws, false)
		prog.Undo(ws, 0, m)
		w.Push(s)
		v, completed := x.fast2.Node(w, s, childWS, 1, 0)
		if stolen := w.PopSpecial(s); stolen != !completed {
			panic(fmt.Sprintf("underMarker: child completed=%v but marker robbed=%v", completed, stolen))
		}
		if completed {
			w.Release(childWS)
			sum += v
		} else {
			w.ExpectDeposit(s)
		}
	}
	return w.JoinSpecial(s, sum), true
}

func (x *underMarker) Resume(w *Worker, f *Frame) (int64, bool) { return x.fast2.Resume(w, f) }

// rootSpy notes the worker the root task ran on — with one worker, the only
// one — so a test can look at what the run left in its workspace pool.
type rootSpy struct {
	Engine
	root *Worker
}

func (s *rootSpy) Root(w *Worker) (int64, bool) {
	s.root = w
	return s.Engine.Root(w)
}

// TestFastConfigurations runs the kernel in every configuration the engines
// use, on the Sim at several widths and on real goroutines, against the
// serial value and the trace laws. Below is wrapped to pin the cutoff
// bookkeeping: it must be entered at exactly the tree depth the
// configuration's relative cutoff implies, also for frames whose Rel
// travelled through a steal. The one-worker Sim run of each configuration
// also pins the split between memory and charge: every configuration
// recycles (the pool is not empty afterwards), and copies, bytes and makespan
// are the literals recorded before any but "pooled" did.
func TestFastConfigurations(t *testing.T) {
	prog := splitProg{weight: 600}
	want, err := sched.Serial{}.Run(prog, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	belowAt := func(t *testing.T, depth int) func(*Worker, sched.Workspace, int) int64 {
		return func(w *Worker, ws sched.Workspace, d int) int64 {
			if d != depth {
				t.Errorf("Below entered at tree depth %d, want %d", d, depth)
			}
			return w.Sequence(ws, d)
		}
	}
	configs := []struct {
		name string
		eng  func(t *testing.T) Engine
		// one-worker Sim: WorkspaceCopies, WorkspaceBytes, makespan
		copies, bytes, makespan int64
	}{
		{"no cutoff", func(*testing.T) Engine { return &Fast{Kind: KindFast} }, 599, 40536, 102588},
		{"cutoff over plain recursion", func(t *testing.T) Engine {
			return &Fast{Kind: KindFast, Cutoff: 3, Below: belowAt(t, 3)}
		}, 14, 384, 18944},
		{"pooled", func(*testing.T) Engine { return &Fast{Kind: KindFast, Pooled: true} }, 599, 40536, 75633},
		{"fast_2 restarted under a special marker", func(t *testing.T) Engine {
			return &underMarker{Fast{Kind: KindFast2, Cutoff: 4, Below: belowAt(t, 1+4)}}
		}, 62, 2560, 24680},
	}
	type platform struct {
		name    string
		workers int
		plat    func() vtime.Platform
	}
	platforms := []platform{{"real P=2", 2, func() vtime.Platform { return &vtime.Real{Seed: 1} }}}
	for _, p := range []int{1, 2, 4, 8} {
		platforms = append(platforms, platform{fmt.Sprintf("sim P=%d", p), p, func() vtime.Platform { return nil }})
	}
	for _, c := range configs {
		for _, pl := range platforms {
			t.Run(c.name+"/"+pl.name, func(t *testing.T) {
				rec := trace.NewRecorder()
				defer rec.Release()
				eng := &rootSpy{Engine: c.eng(t)}
				res, err := Run(prog, sched.Options{
					Workers: pl.workers, Seed: 11, MaxStolenNum: 2, Platform: pl.plat(), Tracer: rec,
				}, eng, c.name)
				if err != nil {
					t.Fatal(err)
				}
				if pl.workers == 1 { // the one-worker Sim; the Real platform runs at P=2
					if len(eng.root.pool) == 0 {
						t.Error("the run left no workspace in the worker's pool: nothing was recycled")
					}
					if s := res.Stats; s.WorkspaceCopies != c.copies || s.WorkspaceBytes != c.bytes || res.Makespan != c.makespan {
						t.Errorf("copies %d bytes %d makespan %d, want %d %d %d: recycling must not move the charge",
							s.WorkspaceCopies, s.WorkspaceBytes, res.Makespan, c.copies, c.bytes, c.makespan)
					}
				}
				if res.Value != want.Value {
					t.Errorf("value %d, serial says %d", res.Value, want.Value)
				}
				if res.Stats.Nodes != want.Stats.Nodes {
					t.Errorf("visited %d nodes, serial visited %d", res.Stats.Nodes, want.Stats.Nodes)
				}
				if err := rec.CheckLaws(trace.Laws{Final: res.Value, Want: want.Value}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// askNothing is a Thief that always asks its victim, worker 0, for zero
// entries; it ends the run after its last attempt.
type askNothing struct {
	rt       *Runtime
	attempts int
}

func (a *askNothing) Pick([]deque.WorkDeque) (victim, amount int) {
	if a.attempts--; a.attempts == 0 {
		a.rt.done.Store(true)
	}
	return 0, 0
}

// TestThiefAskingForNothingStillSignals pins the starvation signal on the
// single steal path: an attempt whose Thief asks for no entries is still an
// attempt, so its failure bumps the victim's stolen_num and, past
// max_stolen_num, raises need_task.
func TestThiefAskingForNothingStillSignals(t *testing.T) {
	const maxStolenNum = 3
	deques := []deque.WorkDeque{deque.New(64, maxStolenNum), deque.New(64, maxStolenNum)}
	rt := newRuntime(leafProg{}, leafEngine{}, deques, sched.Options{})
	thief := &Worker{Walker: sched.Walker{Proc: vtime.NewRealProcs(2, 1)[1]}, Deque: deques[1]}
	thief.bind(rt, 1)

	thief.thief = &askNothing{rt: rt, attempts: maxStolenNum}
	thief.thiefLoop()
	if got := deques[0].StolenNum(); got != maxStolenNum || deques[0].NeedTask() {
		t.Fatalf("after %d failures: stolen_num %d, need_task %v; want %d, false",
			maxStolenNum, got, deques[0].NeedTask(), maxStolenNum)
	}
	rt.done.Store(false)
	thief.thief = &askNothing{rt: rt, attempts: 1}
	thief.thiefLoop()
	if !deques[0].NeedTask() {
		t.Fatalf("need_task still down after %d failed attempts (stolen_num %d)", maxStolenNum+1, deques[0].StolenNum())
	}
	if thief.Stats.StealFails != maxStolenNum+1 {
		t.Errorf("thief counted %d failed steals, want %d", thief.Stats.StealFails, maxStolenNum+1)
	}
}
