package adaptivetc_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"adaptivetc"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/fib"
	"adaptivetc/problems/nqueens"
)

// Cooperative cancellation across every wsrt engine: a job cancelled
// mid-run must abort with the context's error, must not poison the runtime
// for a subsequent job, and its truncated trace must still satisfy every
// invariant that survives truncation (trace.Laws{Truncated: true}).
//
// Tascell and Serial are absent from the engine table for the runtime
// test: Tascell does not observe Options.Ctx (own runtime, documented),
// and Serial is covered separately below.

// cancelAfter wraps a Program, firing cancel at the k-th Apply call and
// then stalling briefly so the context watcher's stop signal lands before
// the workers can finish the run — cancellation becomes deterministic in
// outcome without touching engine code.
type cancelAfter struct {
	adaptivetc.Program
	cancel context.CancelFunc
	k      int64
	calls  *atomic.Int64
}

func (c cancelAfter) Apply(ws adaptivetc.Workspace, depth, m int) bool {
	if c.calls.Add(1) == c.k {
		c.cancel()
		time.Sleep(20 * time.Millisecond) // let the watcher raise the stop flag
	}
	return c.Program.Apply(ws, depth, m)
}

// TestCancelMidRunAllEngines cancels a traced Sim run mid-flight for each
// of the seven wsrt engines, then reuses the engine for an un-cancelled
// run.
func TestCancelMidRunAllEngines(t *testing.T) {
	for _, te := range tracedEngines {
		t.Run(te.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			prog := cancelAfter{Program: nqueens.NewArray(10), cancel: cancel, k: 200, calls: &calls}

			rec := trace.NewRecorder()
			defer rec.Release()
			opt := adaptivetc.Options{Workers: 4, Seed: 7, Ctx: ctx, Tracer: rec, GrowableDeque: true}
			_, err := te.mk().Run(prog, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			if verr := rec.CheckLaws(trace.Laws{Truncated: true}); verr != nil {
				t.Fatalf("truncated trace (%d events):\n%v", rec.EventCount(), verr)
			}

			// The engine value is reusable state: a fresh run must be clean.
			res, err := te.mk().Run(fib.New(12), adaptivetc.Options{Workers: 4, GrowableDeque: true})
			if err != nil || res.Value != 144 {
				t.Fatalf("run after cancel: value=%d err=%v, want 144", res.Value, err)
			}
		})
	}
}

// TestCancelMidRunReal is the Real-platform case: a resident pool job is
// cancelled mid-run and the same pool then serves a correct job — the
// deque reset between jobs must discard the aborted frames.
func TestCancelMidRunReal(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 2, QueueCapacity: 4, Options: sched.Options{GrowableDeque: true}})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	prog := cancelAfter{Program: nqueens.NewArray(12), cancel: cancel, k: 500, calls: &calls}

	rec := trace.NewRecorder()
	defer rec.Release()
	h, err := p.Submit(wsrt.JobSpec{Prog: prog, Engine: adaptivetc.NewAdaptiveTC().(wsrt.PoolEngine), Ctx: ctx, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool job: err = %v, want context.Canceled", err)
	}
	if verr := rec.CheckLaws(trace.Laws{Truncated: true}); verr != nil {
		t.Fatalf("truncated pool trace (%d events):\n%v", rec.EventCount(), verr)
	}

	h2, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(8), Engine: adaptivetc.NewAdaptiveTC().(wsrt.PoolEngine)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h2.Result(); err != nil || res.Value != 92 {
		t.Fatalf("pool job after cancel: value=%d err=%v, want 92", res.Value, err)
	}
}

// TestCancelSerial covers the serial reference engine, which observes
// Options.Ctx in its recursive evaluator.
func TestCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	prog := cancelAfter{Program: nqueens.NewArray(12), cancel: cancel, k: 100, calls: &calls}
	if _, err := adaptivetc.NewSerial().Run(prog, adaptivetc.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled serial run: err = %v, want context.Canceled", err)
	}
}

// TestPreCancelledContext: a context already cancelled at submit aborts
// the run at the first poll point without doing meaningful work.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := adaptivetc.NewAdaptiveTC().Run(nqueens.NewArray(10), adaptivetc.Options{Workers: 2, Ctx: ctx, GrowableDeque: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.Nodes > 2 {
		t.Fatalf("pre-cancelled run still visited %d nodes", res.Stats.Nodes)
	}
}
