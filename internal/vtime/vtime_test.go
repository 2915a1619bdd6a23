package vtime

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimDeterministicOrder(t *testing.T) {
	run := func() []int {
		var order []int
		sim := &Sim{Seed: 3, Quantum: 1}
		sim.Run(3, func(p Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(int64(10 * (p.ID() + 1)))
				order = append(order, p.ID()) // safe: Sim serialises workers
				p.Yield()
			}
		})
		return order
	}
	a, b := run(), run()
	if len(a) != 15 {
		t.Fatalf("got %d events, want 15", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSimMakespan(t *testing.T) {
	sim := &Sim{}
	makespan := sim.Run(4, func(p Proc) {
		p.Advance(int64(1000 * (p.ID() + 1)))
		p.Yield()
	})
	if makespan != 4000 {
		t.Fatalf("makespan = %d, want 4000 (slowest worker)", makespan)
	}
}

func TestSimMinClockScheduling(t *testing.T) {
	// A slow worker and a fast worker: the fast worker should accumulate
	// many steps while the slow worker takes one.
	var trace []int
	sim := &Sim{Quantum: 1}
	sim.Run(2, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < 3; i++ {
				p.Advance(1000)
				trace = append(trace, 0)
				p.Yield()
			}
		} else {
			for i := 0; i < 30; i++ {
				p.Advance(100)
				trace = append(trace, 1)
				p.Yield()
			}
		}
	})
	// Worker 1 should finish its first ~10 steps before worker 0's second.
	ones := 0
	for _, id := range trace[:10] {
		if id == 1 {
			ones++
		}
	}
	if ones < 8 {
		t.Fatalf("fast worker starved: first 10 events %v", trace[:10])
	}
}

func TestSimSleepConvergence(t *testing.T) {
	// One worker produces a flag at t=5000; the other waits on it with
	// Sleep ticks and must observe it, at a clock past the producer's.
	var flag atomic.Bool
	var sawAt int64
	sim := &Sim{}
	sim.Run(2, func(p Proc) {
		if p.ID() == 0 {
			p.Advance(5000)
			p.Yield()
			flag.Store(true)
		} else {
			for !flag.Load() {
				p.Sleep(200)
			}
			sawAt = p.Now()
		}
	})
	if sawAt < 5000 {
		t.Fatalf("waiter observed the flag at virtual %d, before the producer's 5000", sawAt)
	}
}

func TestSimLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from virtual time limit")
		}
	}()
	sim := &Sim{Limit: 1000}
	sim.Run(1, func(p Proc) {
		for {
			p.Sleep(500)
		}
	})
}

// TestSimLimitPanicOutranksEarlierPanic: worker 0 panics first, worker 1
// then spins past Limit. Run must raise the limit panic; a wedged engine
// must not pass as the first worker's failure.
func TestSimLimitPanicOutranksEarlierPanic(t *testing.T) {
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "exceeded virtual time limit") {
			t.Fatalf("Run raised %v, want the virtual time limit panic", r)
		}
	}()
	sim := &Sim{Limit: 1000}
	sim.Run(2, func(p Proc) {
		if p.ID() == 0 {
			panic("boom")
		}
		for {
			p.Advance(100)
			p.Yield()
		}
	})
}

// TestNowMonotonic pins the clock property the trace recorder leans on:
// within one worker, Now never goes backwards across Advance, Yield and
// Sleep — per-worker trace timestamps are therefore already sorted.
func TestNowMonotonic(t *testing.T) {
	check := func(t *testing.T, p Proc, last *int64) {
		t.Helper()
		if now := p.Now(); now < *last {
			t.Errorf("worker %d: Now went backwards: %d after %d", p.ID(), now, *last)
		} else {
			*last = now
		}
	}
	t.Run("sim", func(t *testing.T) {
		sim := &Sim{Seed: 11, Quantum: 3}
		sim.Run(4, func(p Proc) {
			var last int64
			for i := 0; i < 200; i++ {
				p.Advance(int64(p.Rand().Intn(50)))
				check(t, p, &last)
				p.Yield()
				check(t, p, &last)
				if i%17 == 0 {
					p.Sleep(25)
					check(t, p, &last)
				}
			}
		})
	})
	t.Run("real", func(t *testing.T) {
		r := &Real{Seed: 11}
		r.Run(4, func(p Proc) {
			var last int64
			for i := 0; i < 200; i++ {
				p.Advance(5)
				check(t, p, &last)
				p.Yield()
				check(t, p, &last)
			}
		})
	})
}

func TestRealPlatformRuns(t *testing.T) {
	var count atomic.Int64
	r := &Real{Seed: 5}
	makespan := r.Run(4, func(p Proc) {
		count.Add(1)
		p.Advance(10)
		p.Yield()
		p.Sleep(100)
	})
	if count.Load() != 4 {
		t.Fatalf("ran %d workers, want 4", count.Load())
	}
	if makespan <= 0 {
		t.Fatalf("makespan = %d, want > 0", makespan)
	}
}

// wrapper is a Proc that forwards everything, as a counting or delaying
// wrapper would.
type wrapper struct{ Proc }

// TestCharges: only the wall-clock Procs of Real.Run and NewRealProcs have
// empty Advance and Yield; Sim Procs and any wrapper must be charged.
func TestCharges(t *testing.T) {
	check := func(what string, p Proc, want bool) {
		if got := Charges(p); got != want {
			t.Errorf("Charges(%s) = %v, want %v", what, got, want)
		}
	}
	(&Real{Seed: 1}).Run(2, func(p Proc) {
		check("Real.Run Proc", p, false)
		check("wrapped Real.Run Proc", wrapper{p}, true)
	})
	for _, p := range NewRealProcs(2, 1) {
		check("NewRealProcs Proc", p, false)
		check("wrapped NewRealProcs Proc", &wrapper{p}, true)
	}
	(&Sim{Seed: 1}).Run(2, func(p Proc) {
		check("Sim Proc", p, true)
		check("wrapped Sim Proc", wrapper{p}, true)
	})
}

func TestProcRandDeterministic(t *testing.T) {
	draw := func(seed int64) [2]int64 {
		var out [2]int64
		sim := &Sim{Seed: seed}
		sim.Run(2, func(p Proc) {
			out[p.ID()] = p.Rand().Int63()
		})
		return out
	}
	a, b := draw(9), draw(9)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("workers share a random stream")
	}
	if c := draw(10); c == a {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSimNoGoroutineLeak holds Run to its unwinding contract in the three
// ways a body can end: every worker's coroutine is gone once Run has
// returned (normal return), re-raised (one panic, the rest run to
// completion) or unwound its caller (one Goexit, the rest unwound from the
// Yield they were suspended in, their deferred calls run). In the last case
// the others may also be idle in YieldIdle, with retries that never find
// work: none of those may run on into the unwinding.
func TestSimNoGoroutineLeak(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name      string
		end       func() // what worker 1 does half-way through
		idle      bool   // whether the other workers only idle, for ever
		finished  int    // bodies that reach their last line
		panicked  any
		returned  bool
		deferRuns int
	}{
		{"return", func() {}, false, n, nil, true, n},
		{"panic", func() { panic("boom") }, false, n - 1, "boom", false, n},
		{"goexit", runtime.Goexit, false, 0, nil, false, n},
		{"goexit-idle", runtime.Goexit, true, 0, nil, false, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var finished, deferRuns, retries int
			var panicked any
			returned := false
			done := make(chan struct{})
			go func() { // Run's caller: the Goexit case takes it down
				defer close(done)
				defer func() { panicked = recover() }()
				(&Sim{Seed: 1, Quantum: 1}).Run(n, func(p Proc) {
					defer func() { deferRuns++ }()
					for tc.idle && p.ID() != 1 {
						p.Advance(7)
						YieldIdle(p, func() bool { p.Advance(7); retries++; return retries < 10000 })
					}
					for i := 0; i < 10; i++ {
						p.Sleep(int64(10 + p.ID()))
						if i == 5 && p.ID() == 1 {
							tc.end()
						}
					}
					finished++
				})
				returned = true
			}()
			<-done
			if retries >= 10000 {
				t.Errorf("%d retries: idle workers retried on into the unwinding", retries)
			}
			if finished != tc.finished || panicked != tc.panicked || returned != tc.returned || deferRuns != tc.deferRuns {
				t.Errorf("finished %d, panic %v, returned %v, deferred calls %d; want %d, %v, %v, %d",
					finished, panicked, returned, deferRuns, tc.finished, tc.panicked, tc.returned, tc.deferRuns)
			}
			// The caller closes done from a deferred call, so it may still be
			// exiting; everything else must already be gone. Sleeping rather
			// than yielding lets the exiting goroutine's P run it: under
			// -race it was seen still runnable after a thousand Gosched.
			for i := 0; runtime.NumGoroutine() > base && i < 1000; i++ {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after Run, %d before", got, base)
			}
		})
	}
}
