package wsrt

import (
	"errors"
	"testing"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
)

// TestCompleteAfterFailure pins the abort semantics: once a worker has
// recorded a failure (deque overflow), a straggler's late completion — a
// deposit cascade reaching a nil parent while another worker aborts — must
// not overwrite the failed state and dress the run up as successful.
func TestCompleteAfterFailure(t *testing.T) {
	rt := &Runtime{}
	rt.failure.Store(&runError{err: sched.ErrDequeOverflow})
	rt.complete(42)
	if rt.done.Load() {
		t.Fatal("complete() after failure marked the run done")
	}
	if got := rt.value.Load(); got != 0 {
		t.Fatalf("complete() after failure stored value %d, want untouched 0", got)
	}

	// Without a failure the same call is the normal completion path.
	rt2 := &Runtime{}
	rt2.complete(42)
	if !rt2.done.Load() || rt2.value.Load() != 42 {
		t.Fatalf("complete() without failure: done=%v value=%d, want true/42",
			rt2.done.Load(), rt2.value.Load())
	}
}

// TestFinalizeStatsClampsWorkTime pins the WorkTime derivation as a job's
// stats collection applies it (sched.Stats.DeriveWorkTime, under Profile
// only): the overhead components are charged in windows that can overlap
// WorkerTime's endpoints on tiny runs, so the subtraction may dip below zero
// and must be clamped — a negative "useful work" figure poisons overhead
// percentages.
func TestFinalizeStatsClampsWorkTime(t *testing.T) {
	cases := []struct {
		name string
		in   sched.Stats
		want int64
	}{
		{
			name: "components below worker time",
			in:   sched.Stats{WorkerTime: 100, CopyTime: 10, DequeTime: 20, StealTime: 5},
			want: 65,
		},
		{
			name: "components exceed worker time",
			in:   sched.Stats{WorkerTime: 50, DequeTime: 30, WaitTime: 40},
			want: 0,
		},
		{
			name: "exactly zero",
			in:   sched.Stats{WorkerTime: 30, PollTime: 30},
			want: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := collectStats([]*Worker{{Walker: sched.Walker{Stats: c.in}}}, nil, true)
			if st.WorkTime != c.want {
				t.Fatalf("WorkTime = %d, want %d", st.WorkTime, c.want)
			}
		})
	}

	// Profile off: WorkTime is not derived at all.
	st := collectStats([]*Worker{{Walker: sched.Walker{Stats: sched.Stats{WorkerTime: 100, WorkTime: -7}}}}, nil, false)
	if st.WorkTime != -7 {
		t.Fatalf("collectStats touched WorkTime with profiling off: %d", st.WorkTime)
	}
}

// unitWS / leafProg: a one-node program for driving Run directly.
type unitWS struct{}

func (unitWS) Clone() sched.Workspace { return unitWS{} }
func (unitWS) Bytes() int             { return 0 }

type leafProg struct{}

func (leafProg) Name() string                                { return "leaf" }
func (leafProg) Root() sched.Workspace                       { return unitWS{} }
func (leafProg) Terminal(sched.Workspace, int) (int64, bool) { return 7, true }
func (leafProg) Moves(sched.Workspace, int) int              { return 0 }
func (leafProg) Apply(sched.Workspace, int, int) bool        { return false }
func (leafProg) Undo(sched.Workspace, int, int)              {}

// leafEngine visits the root node and returns its terminal value.
type leafEngine struct{}

func (leafEngine) Root(w *Worker) (int64, bool) {
	ws := w.Prog().Root()
	w.Visit(ws, 0)
	v, _ := w.Prog().Terminal(ws, 0)
	return v, true
}

func (leafEngine) Resume(*Worker, *Frame) (int64, bool) {
	panic("leafEngine: nothing is ever pushed, so nothing can be resumed")
}

// TestRunProfileOneNode is the S3 regression: a 1-node program under
// Profile spends essentially all of its only worker's time inside charge
// windows, the case where the WorkTime subtraction used to go negative.
func TestRunProfileOneNode(t *testing.T) {
	res, err := Run(leafProg{}, sched.Options{Workers: 1, Profile: true},
		leafEngine{}, "leaf")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Value != 7 {
		t.Fatalf("value = %d, want 7", res.Value)
	}
	if res.Stats.WorkTime < 0 {
		t.Fatalf("WorkTime = %d, want >= 0", res.Stats.WorkTime)
	}
}

// TestTraceKindSpecialMirror pins the cross-package constant: the trace
// checker cannot import wsrt (wsrt imports trace), so it mirrors
// KindSpecial numerically and this test keeps the two from drifting.
func TestTraceKindSpecialMirror(t *testing.T) {
	if trace.KindSpecial != int64(KindSpecial) {
		t.Fatalf("trace.KindSpecial = %d, wsrt.KindSpecial = %d; the mirror drifted",
			trace.KindSpecial, KindSpecial)
	}
}

// stopSpy is leafEngine as a pool engine that notes its job's stop flag.
type stopSpy struct {
	leafEngine
	stop *sched.Stop
}

func (s *stopSpy) Name() string                             { return "stop-spy" }
func (s *stopSpy) NewExec(int, sched.Options) Engine        { return s }
func (s *stopSpy) Root(w *Worker) (int64, bool)             { s.stop = w.rt.stop; return s.leafEngine.Root(w) }
func (s *stopSpy) Resume(w *Worker, f *Frame) (int64, bool) { return s.leafEngine.Resume(w, f) }

// TestPoolWorkerDropsFinishedJob: between jobs a resident worker holds no
// reference to the finished job's program or stop flag, so a finished job's
// program is not kept alive by the pool and a stop fired after the job does
// not reach the worker's next node visit.
func TestPoolWorkerDropsFinishedJob(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2})
	defer p.Close()
	for _, first := range []bool{false, true} {
		spy := &stopSpy{}
		h, err := p.Submit(JobSpec{Prog: leafProg{}, Engine: spy, FirstSolution: first})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := h.Result(); err != nil || res.Value != 7 {
			t.Fatalf("first solution %v: value %d, err %v; want 7", first, res.Value, err)
		}
		spy.stop.Signal(errors.New("fired after the job"))
		for i, w := range p.workers {
			if w.Prog() != nil || w.rt != nil {
				t.Errorf("first solution %v: worker %d still holds the finished job's program %v", first, i, w.Prog())
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("first solution %v: worker %d still polls the finished job's stop flag: %v", first, i, r)
					}
				}()
				w.Visit(unitWS{}, 0)
			}()
		}
	}
}
