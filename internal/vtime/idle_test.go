package vtime

import (
	"fmt"
	"strings"
	"testing"
)

// idleSequence runs grantSequence's kind of seeded body with idle phases
// added: a run of attempts that fail until the last, each charging a drawn
// cost. With idle false a failed attempt is followed by a plain Yield, with
// idle true by YieldIdle and the attempt as its retry. It returns the
// "id clock horizon" line of every resume (a retry run by the core is one),
// then each worker's final clock and attempt count, and the makespan.
func idleSequence(n int, quantum int64, idle bool) string {
	var sb strings.Builder
	clocks := make([]int64, n)
	attempts := make([]int, n)
	sim := &Sim{Seed: 20100424, Quantum: quantum}
	makespan := sim.Run(n, func(p Proc) {
		sp := p.(*simProc)
		last := int64(-1)
		resumed := func() {
			if sp.horizon != last {
				last = sp.horizon
				fmt.Fprintf(&sb, "%d %d %d\n", sp.id, sp.clock, sp.horizon)
			}
		}
		resumed()
		r := p.Rand()
		left := 0
		attempt := func() bool { // true while attempts keep failing
			if left == 0 {
				return false
			}
			attempts[sp.id]++
			p.Advance(int64(1 + r.Intn(60)))
			left--
			return left > 0
		}
		retry := func() bool {
			resumed()
			return attempt()
		}
		for i := 0; i < 40; i++ {
			switch r.Intn(4) {
			case 0:
				p.Advance(int64(r.Intn(400)))
			case 1:
				p.Yield()
				resumed()
			case 2:
				p.Sleep(int64(r.Intn(300)))
				resumed()
			case 3:
				left = 1 + r.Intn(12)
				for attempt() {
					if idle {
						YieldIdle(p, retry)
					} else {
						p.Yield()
					}
					resumed()
				}
			}
		}
		clocks[sp.id] = sp.clock
	})
	fmt.Fprintf(&sb, "clocks %v attempts %v makespan %d\n", clocks, attempts, makespan)
	return sb.String()
}

// TestYieldIdleMatchesYieldLoop: a retry run in place by the core is the
// iteration the worker would have run after Yield came back, so grants,
// clocks, Rand draws and the makespan are those of the Yield loop.
func TestYieldIdleMatchesYieldLoop(t *testing.T) {
	for _, c := range grantConfigs {
		if c.idle {
			continue // the same shapes as the plain rows
		}
		want, got := idleSequence(c.n, c.quantum, false), idleSequence(c.n, c.quantum, true)
		if got != want {
			t.Errorf("n=%d quantum=%d: YieldIdle diverged from the Yield loop\n--- got\n%s\n--- want\n%s", c.n, c.quantum, got, want)
		}
	}
}

// TestYieldIdleWakesAtRetryClock: the worker resumes at the clock its last
// retry reached, the one that returned false, and that retry is its last.
func TestYieldIdleWakesAtRetryClock(t *testing.T) {
	var retries int
	var wokeAt, woke int64
	(&Sim{Seed: 1, Quantum: 1}).Run(2, func(p Proc) {
		if p.ID() == 1 {
			for i := 0; i < 100; i++ {
				p.Advance(25)
				p.Yield()
			}
			return
		}
		p.Advance(10)
		YieldIdle(p, func() bool {
			retries++
			p.Advance(10)
			if retries == 20 {
				wokeAt = p.Now()
				return false
			}
			return true
		})
		woke = p.Now()
	})
	if retries != 20 || woke != wokeAt || woke != 210 {
		t.Errorf("%d retries, woke at %d, last retry at %d; want 20, 210, 210", retries, woke, wokeAt)
	}
}

// countingProc counts the Yields it forwards.
type countingProc struct {
	Proc
	yields int
}

func (c *countingProc) Yield() { c.yields++; c.Proc.Yield() }

// TestYieldIdleWrapperYields: any Proc but a Sim's own is only yielded, so
// a wrapper sees the same calls as before and retry never runs.
func TestYieldIdleWrapperYields(t *testing.T) {
	retry := func() bool { t.Error("retry ran on a wrapped Proc"); return false }
	(&Sim{Seed: 1, Quantum: 1}).Run(2, func(p Proc) {
		c := &countingProc{Proc: p}
		for i := 0; i < 10; i++ {
			c.Advance(int64(1 + p.ID()))
			YieldIdle(c, retry)
		}
		if c.yields != 10 {
			t.Errorf("worker %d: %d Yields forwarded, want 10", p.ID(), c.yields)
		}
	})
	(&Real{Seed: 1}).Run(2, func(p Proc) { YieldIdle(p, retry) })
}

// TestYieldIdleRetryPanic: a retry's panic is its own worker's, raised from
// the YieldIdle that worker is paused in even when another worker's stack
// ran the retry; the other worker runs to completion and Run re-raises it.
func TestYieldIdleRetryPanic(t *testing.T) {
	var saw [2]any
	finished := 0
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		(&Sim{Seed: 1, Quantum: 1}).Run(2, func(p Proc) {
			defer func() {
				if r := recover(); r != nil {
					saw[p.ID()] = r
					panic(r)
				}
			}()
			if p.ID() == 1 {
				for i := 0; i < 50; i++ {
					p.Advance(25)
					p.Yield()
				}
				finished++
				return
			}
			retries := 0
			p.Advance(10)
			YieldIdle(p, func() bool {
				if retries++; retries == 5 {
					panic("boom")
				}
				p.Advance(10)
				return true
			})
			t.Error("worker 0 ran on past its retry's panic")
		})
	}()
	if saw != [2]any{"boom", nil} || finished != 1 || panicked != "boom" {
		t.Errorf("panics seen by workers %v, %d finished, Run raised %v; want [boom <nil>], 1, boom", saw, finished, panicked)
	}
}
