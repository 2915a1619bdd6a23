//go:build go1.23

package vtime

import (
	"fmt"
	"iter"
	"runtime"
)

// Sim is a deterministic virtual-time platform. At any instant exactly one
// worker executes; control always passes to the runnable worker with the
// smallest virtual clock (ties broken by worker ID). To keep the handoff
// overhead low each worker is granted a slice: it may keep running without a
// handoff until its clock passes the second-smallest clock plus Quantum.
//
// Workers are coroutines (iter.Pull, hence this file's go1.23 tag with both
// go.mod files at 1.22; there is no fallback) and the goroutine that called
// Run is their driver: it resumes whichever worker the core names and gets
// control back when that worker hands off or finishes. The yielding worker
// consults the min-heap of paused workers itself. While it is still the
// earliest runnable worker (always the case for the last live worker, and
// for every single-worker run) it just extends its own horizon and continues
// with no switch at all; otherwise it names the new minimum and yields — two
// coroutine switches on one thread, the Go scheduler never involved. The
// heap is only ever touched by the one running worker, so it needs no lock;
// determinism is untouched because the (worker, horizon) grant sequence is
// identical to a central scheduler's.
//
// A worker that yields through YieldIdle costs no switch while it idles:
// when the core grants it, the core runs its retry on the stack that is
// already running, and resumes the worker only once a retry finds work.
type Sim struct {
	// Seed for per-worker random sources. Zero means 1.
	Seed int64
	// Quantum is the slice slack in nanoseconds. Larger values run faster
	// but allow workers to interleave up to Quantum out of order. Zero
	// means 500ns.
	Quantum int64
	// Limit aborts the run (panic) if any clock passes this virtual time.
	// Zero means no limit. It exists to turn engine livelocks into loud
	// failures instead of hangs.
	Limit int64
}

// Name implements Platform.
func (*Sim) Name() string { return "sim" }

type simProc struct {
	id      int
	clock   int64
	horizon int64
	limit   int64
	core    *simCore
	lazyRand

	// resume and stop are the driver's side of this worker's coroutine,
	// yield the worker's own: it returns true once the driver has resumed
	// the worker, false if the driver stopped it instead.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// retry is set while the worker is paused in YieldIdle, retried the
	// panic one of its retries raised on another stack, and returned is
	// set once its body has returned.
	retry    func() bool
	retried  *panicBox
	returned bool
}

func (p *simProc) ID() int    { return p.id }
func (p *simProc) Now() int64 { return p.clock }

func (p *simProc) Advance(d int64) {
	if d > 0 {
		p.clock += d
		if p.limit > 0 && p.clock > p.limit {
			panic(fmt.Sprintf("vtime: worker %d exceeded virtual time limit %dns (livelocked engine?)", p.id, p.limit))
		}
	}
}

func (p *simProc) Yield() {
	if p.clock < p.horizon {
		return
	}
	p.core.handoff(p)
}

// YieldIdle is p.Yield for a worker that would only retry something and
// yield again, such as a thief after a failed steal. On a Sim Proc, each time
// the core grants the paused worker it calls retry in place of resuming it:
// true means the retry failed again, and the worker's horizon decides, as in
// Yield, whether the core retries again or pauses the worker once more;
// false means the worker must run, and YieldIdle returns. A panic in retry
// is raised again from this call, on the worker's own coroutine. retry must
// act as that worker and must not call runtime.Goexit. On any other Proc,
// wrappers of a Sim Proc included, YieldIdle is p.Yield().
func YieldIdle(p Proc, retry func() bool) {
	sp, ok := p.(*simProc)
	if !ok {
		p.Yield()
		return
	}
	sp.retry = retry
	sp.Yield()
	sp.retry = nil
	if pb := sp.retried; pb != nil {
		sp.retried = nil
		panic(pb.val)
	}
}

// idle runs p's retry while p would have kept running after each failure.
// It reports whether p goes back on the heap without being resumed: false
// when a retry asked for p, or panicked (YieldIdle re-raises it).
func (p *simProc) idle() (requeue bool) {
	defer func() {
		if r := recover(); r != nil {
			p.retried = &panicBox{val: r}
			requeue = false
		}
	}()
	for p.retry() {
		if p.clock >= p.horizon {
			return true
		}
	}
	return false
}

func (p *simProc) Sleep(d int64) {
	p.Advance(d)
	p.Yield()
}

// simCore is the shared scheduling state of one Sim run. Only the single
// running worker ever touches it (the driver touches it only while every
// worker is suspended or finished), so it is lock-free by construction.
type simCore struct {
	quantum  int64
	heap     []*simProc // paused runnable workers, min-ordered by (clock, id)
	next     *simProc   // the worker granted the next slice; nil once all have finished
	makespan int64
	panicked *panicBox // the panic Run re-raises (see retire)
}

// less orders the heap by clock, ties broken by worker ID — the same total
// order a linear minimum scan over worker slices would produce.
func simLess(a, b *simProc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

func (c *simCore) heapPush(p *simProc) {
	c.heap = append(c.heap, p)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !simLess(c.heap[i], c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

func (c *simCore) heapPop() *simProc {
	h := c.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	c.heap = h[:last]
	c.siftDown()
	return top
}

// siftDown restores the heap order after the top entry was replaced, or its
// clock raised.
func (c *simCore) siftDown() {
	h := c.heap
	i, n := 0, len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && simLess(h[l], h[min]) {
			min = l
		}
		if r < n && simLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// grant pops the earliest paused worker into c.next (nil if none is left)
// and sets its horizon: the smallest clock still paused plus the quantum
// (conservative ordering — next cannot run past any paused worker by more
// than the quantum). With no paused workers left nothing constrains the
// order, so the horizon is unbounded and the worker never hands off again.
//
// A worker paused in YieldIdle runs its retries here instead, while it sits
// at the top of the heap: the smallest clock still paused is then its
// smaller child's. When the retries reach its horizon it stays paused, and
// sifting it down from the top re-queues it with no pop and push. Because
// (clock, id) orders the workers strictly, the top is then the same worker
// a pop and a push would have left there, so the grant sequence is too.
func (c *simCore) grant() {
	for len(c.heap) > 0 {
		next := c.heap[0]
		next.horizon = 1<<63 - 1
		if len(c.heap) > 1 {
			second := c.heap[1]
			if len(c.heap) > 2 && simLess(c.heap[2], second) {
				second = c.heap[2]
			}
			next.horizon = max(next.clock, second.clock) + c.quantum
		}
		if next.retry == nil || !next.idle() {
			c.next = c.heapPop()
			return
		}
		c.siftDown()
	}
	c.next = nil
}

// handoff parks p and grants the earliest runnable worker — possibly p
// itself, in which case no switch happens. Otherwise p yields to the driver,
// which resumes c.next; a false yield means Run is unwinding instead (see
// its comment) and p's body unwinds with it.
func (c *simCore) handoff(p *simProc) {
	c.heapPush(p)
	c.grant()
	if c.next != p && !p.yield(struct{}{}) {
		runtime.Goexit()
	}
}

// retire is deferred around a worker's body: it records a panic, folds the
// worker's clock into the makespan and grants the next worker. The coroutine
// then ends, which returns control to the driver. A body that neither
// returned nor panicked called runtime.Goexit: Run is unwinding, nobody is
// resumed again, and so nobody is granted, lest an idle worker's retries
// run on into the unwinding. The first panic is kept, except that a worker
// whose clock passed Limit replaces it: a co-worker that livelocks after a
// panic is a wedged engine, and the first panic must not hide it.
func (c *simCore) retire(p *simProc) {
	r := recover()
	if r != nil && (c.panicked == nil || p.limit > 0 && p.clock > p.limit) {
		c.panicked = &panicBox{val: r}
	}
	c.makespan = max(c.makespan, p.clock)
	if r != nil || p.returned {
		c.grant()
	}
}

// Run implements Platform. A body that panics retires its worker; the rest
// run to completion and Run then re-raises the first panic value on the
// caller's goroutine. A body that calls runtime.Goexit (t.FailNow, t.Fatal)
// takes Run's caller with it, as if the body ran on that goroutine: the
// caller unwinds at once, and on its way out Run resumes every suspended
// worker with a Goexit of its own from the Yield it is paused in, so deferred
// calls run in every body and no coroutine outlives the run.
func (s *Sim) Run(n int, body func(Proc)) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: Sim.Run with n=%d workers", n))
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	quantum := s.Quantum
	if quantum == 0 {
		quantum = 500
	}

	core := &simCore{quantum: quantum, heap: make([]*simProc, 0, n)}
	for i := 0; i < n; i++ {
		p := &simProc{
			id:       i,
			limit:    s.Limit,
			core:     core,
			lazyRand: newLazyRand(seed, i),
		}
		p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer core.retire(p)
			body(p)
			p.returned = true
		})
		// One defer per worker, not one loop: stopping a suspended worker
		// ends in a Goexit here too, which runs the remaining defers but
		// never returns into a loop. A finished worker's stop is a no-op.
		defer p.stop()
		core.heapPush(p)
	}

	for core.grant(); core.next != nil; {
		core.next.resume()
	}
	if core.panicked != nil {
		panic(core.panicked.val) // re-raise on the caller's goroutine
	}
	return core.makespan
}
