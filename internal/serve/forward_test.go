// Tests for the cluster-facing half of the service: forward-on-full, the
// 429-once accounting contract, queued-job extraction, and peer-side
// admission of forwarded jobs.
package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// fillService occupies the lone worker with a long blocker and the single
// queue slot with a filler, so the next Submit is a capacity miss. Returns
// the blocker for cleanup.
func fillService(t *testing.T, s *Service) *Job {
	t.Helper()
	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	waitForState(t, blocker, StateRunning)
	if _, err := s.Submit(Request{Program: "fib", N: 10, TimeoutMS: 30000}); err != nil {
		t.Fatalf("filler: %v", err)
	}
	return blocker
}

// TestForwardOnFullAccounting pins the 429-once contract on the submit
// node: without a forwarder a capacity miss is a plain queue-full
// rejection; with a failing forwarder it is a capacity RejectionError
// carrying this node's own Retry-After (still counted exactly once); with
// a working forwarder it is not a rejection at all — the job is adopted
// in StateForwarded and settles with the peer's result.
func TestForwardOnFullAccounting(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 1})
	t.Cleanup(s.Close)
	blocker := fillService(t, s)
	over := Request{Program: "fib", N: 10, TimeoutMS: 30000}

	// No forwarder: the single-node contract, one rejection.
	_, err := s.Submit(over)
	if !errors.Is(err, wsrt.ErrQueueFull) {
		t.Fatalf("no forwarder: got %v, want ErrQueueFull", err)
	}
	if m := s.Snapshot(); m.Rejected != 1 {
		t.Fatalf("no forwarder: rejected=%d, want 1", m.Rejected)
	}

	// Failing forwarder: still exactly one new rejection, and the 429
	// carries this node's own hint while remaining a queue-full error.
	s.SetForwarder(func(Request) (*Forwarded, error) { return nil, errors.New("no colder peer") })
	_, err = s.Submit(over)
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("failing forwarder: got %v, want RejectionError", err)
	}
	if rej.Reason != "capacity" || rej.RetryAfter != time.Second {
		t.Fatalf("failing forwarder: reason=%q retryAfter=%v, want capacity/1s", rej.Reason, rej.RetryAfter)
	}
	if !errors.Is(err, wsrt.ErrQueueFull) {
		t.Fatalf("capacity RejectionError must wrap ErrQueueFull, got %v", err)
	}
	m := s.Snapshot()
	if m.Rejected != 2 || m.ForwardRejected != 0 {
		t.Fatalf("failing forwarder: rejected=%d forward_rejected=%d, want 2/0", m.Rejected, m.ForwardRejected)
	}

	// Working forwarder: no rejection; the record stays here in
	// StateForwarded and the remote watcher settles it.
	s.SetForwarder(func(req Request) (*Forwarded, error) {
		return &Forwarded{Node: "http://peer-b", JobID: "remote-7",
			Wait: func(context.Context) (sched.Result, error) {
				return sched.Result{Value: 77}, nil
			}}, nil
	})
	j, err := s.Submit(over)
	if err != nil {
		t.Fatalf("working forwarder: %v", err)
	}
	waitForState(t, j, StateDone)
	if _, res, jerr := j.Snapshot(); jerr != nil || res.Value != 77 {
		t.Fatalf("forwarded job settled as (%v, %v), want value 77", res.Value, jerr)
	}
	if st := status(j); st.ForwardedTo != "http://peer-b" || st.RemoteID != "remote-7" {
		t.Fatalf("status carries %q/%q, want peer-b/remote-7", st.ForwardedTo, st.RemoteID)
	}
	m = s.Snapshot()
	if m.Rejected != 2 {
		t.Errorf("working forwarder must not count a rejection: rejected=%d", m.Rejected)
	}
	if m.ForwardedOut != 1 || m.ForwardedNow != 0 {
		t.Errorf("forwarded_out=%d forwarded_now=%d, want 1/0", m.ForwardedOut, m.ForwardedNow)
	}

	if _, ok := s.Cancel(blocker.ID); !ok {
		t.Fatalf("cancel blocker")
	}
}

// TestSubmitForwardedAccounting pins the peer side of the contract: a
// refused forward lands in forward_rejected only (the origin owns the
// client's 429), an accepted one runs to completion with the origin
// recorded and counted in forwarded_in.
func TestSubmitForwardedAccounting(t *testing.T) {
	full := New(Config{Workers: 1, QueueCapacity: 1})
	t.Cleanup(full.Close)
	blocker := fillService(t, full)

	_, err := full.SubmitForwarded(Request{Program: "fib", N: 10}, "http://origin-a", 1)
	if !errors.Is(err, wsrt.ErrQueueFull) {
		t.Fatalf("full peer: got %v, want ErrQueueFull", err)
	}
	if m := full.Snapshot(); m.ForwardRejected != 1 || m.Rejected != 0 {
		t.Fatalf("full peer: forward_rejected=%d rejected=%d, want 1/0", m.ForwardRejected, m.Rejected)
	}
	if _, ok := full.Cancel(blocker.ID); !ok {
		t.Fatalf("cancel blocker")
	}

	idle := New(Config{Workers: 2, QueueCapacity: 8})
	t.Cleanup(idle.Close)
	j, err := idle.SubmitForwarded(Request{Program: "fib", N: 10, Tenant: "t1", Priority: "interactive"}, "http://origin-a", 1)
	if err != nil {
		t.Fatalf("idle peer: %v", err)
	}
	waitForState(t, j, StateDone)
	if st := status(j); st.Origin != "http://origin-a" {
		t.Fatalf("origin %q, want http://origin-a", st.Origin)
	}
	if m := idle.Snapshot(); m.ForwardedIn != 1 || m.ForwardRejected != 0 {
		t.Fatalf("idle peer: forwarded_in=%d forward_rejected=%d, want 1/0", m.ForwardedIn, m.ForwardRejected)
	}
}

// TestExtractQueuedOrderAndLifecycle extracts queued jobs for rebalancing:
// reverse service order (background tail before interactive) passing over
// a job at its hop limit, Requeue restores the job for local completion,
// Placed hands it to a fake peer whose result settles the local record.
func TestExtractQueuedOrderAndLifecycle(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 8})
	t.Cleanup(s.Close)
	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	waitForState(t, blocker, StateRunning)
	// A pad takes the pool's staging slot, so every job below stays in the
	// queue, where extraction can reach it.
	if _, err := s.Submit(Request{Program: "fib", N: 10, TimeoutMS: 30000}); err != nil {
		t.Fatalf("pad: %v", err)
	}

	inter, err := s.Submit(Request{Program: "fib", N: 10, Priority: "interactive", TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("interactive: %v", err)
	}
	bg, err := s.Submit(Request{Program: "fib", N: 12, Priority: "background", TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("background: %v", err)
	}

	// A forwarded-in job at the hop limit sits at the very tail — the first
	// thing extraction would take — and must be passed over every time.
	atLimit, err := s.SubmitForwarded(Request{Program: "fib", N: 11, Priority: "background", TimeoutMS: 30000}, "http://origin-a", 3)
	if err != nil {
		t.Fatalf("forwarded-in: %v", err)
	}
	mayHop := func(hops int) bool { return hops < 3 }

	got := s.ExtractQueued(1, mayHop)
	if len(got) != 1 || got[0].ID() != bg.ID {
		t.Fatalf("ExtractQueued(1) took %v, want the background job %s", got, bg.ID)
	}
	if p := got[0].Request().Priority; p != "background" {
		t.Fatalf("extracted request priority %q, want background (metadata must travel)", p)
	}

	// Requeue: the job must still complete locally once the worker frees.
	got[0].Requeue()
	// Placed: the interactive job goes to a fake peer.
	got = s.ExtractQueued(3, mayHop)
	var placed *RemoteJob
	for _, rj := range got {
		if rj.ID() == inter.ID {
			placed = rj
		} else {
			rj.Requeue()
		}
	}
	if placed == nil {
		t.Fatalf("interactive job not extracted; got %d jobs", len(got))
	}
	placed.Placed("http://peer-c", "r-9", func(context.Context) (sched.Result, error) {
		return sched.Result{Value: 55}, nil
	})
	waitForState(t, inter, StateDone)
	if _, res, jerr := inter.Snapshot(); jerr != nil || res.Value != 55 {
		t.Fatalf("placed job settled as (%v, %v), want 55", res.Value, jerr)
	}

	if _, ok := s.Cancel(blocker.ID); !ok {
		t.Fatalf("cancel blocker")
	}
	waitForState(t, bg, StateDone)
	waitForState(t, atLimit, StateDone)
	if m := s.Snapshot(); m.ForwardedOut != 1 || m.ForwardedNow != 0 {
		t.Fatalf("forwarded_out=%d forwarded_now=%d, want 1/0", m.ForwardedOut, m.ForwardedNow)
	}
}
