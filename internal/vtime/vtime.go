// Package vtime is the execution platform shared by every scheduling engine
// in this repository. A Platform runs N workers; each worker receives a Proc
// handle through which it accounts for the cost of its actions and offers
// scheduling points.
//
// Two implementations exist:
//
//   - Real: workers are ordinary goroutines and Now is the wall clock. Use
//     this on multi-core hosts and in race-detector tests.
//   - Sim: a deterministic conservative discrete-event core. Only the worker
//     with the smallest virtual clock runs; everything an engine does
//     (executing a node, pushing a frame, attempting a steal, copying a
//     workspace, polling, waiting) advances its clock by a modelled cost.
//     The virtual makespan of a run is then a faithful, reproducible stand-in
//     for wall-clock time on a machine with N real cores — which is how this
//     reproduction measures speedup on a single-core host.
//
// Engines must follow one rule for the two modes to be interchangeable:
// never call Advance, Yield or Sleep while holding a lock that another
// worker may contend. Between two Yield points a Sim worker runs alone, so
// uncontended locks cost nothing and the identical code is race-safe under
// Real with the locks doing their usual job.
package vtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Proc is a worker's handle onto the platform. A Proc is owned by exactly
// one worker goroutine; none of its methods may be called from elsewhere.
type Proc interface {
	// ID is the worker index in [0, N).
	ID() int
	// Now returns the worker's current time in nanoseconds. Under Sim this
	// is the worker's virtual clock; under Real it is wall time since the
	// run started. Time from different workers is comparable.
	Now() int64
	// Advance accounts d nanoseconds of work. Under Sim it moves the
	// virtual clock; under Real it is empty: the work itself is real, and
	// hot loops skip the call altogether where Charges(p) is false.
	// Negative d is ignored.
	Advance(d int64)
	// Yield is a scheduling point. Under Sim control may transfer to the
	// worker with the smallest clock; under Real it is empty, and skipped
	// like Advance. A worker with nothing to do but retry yields through
	// YieldIdle instead, which lets the Sim run the retries without it.
	Yield()
	// Sleep advances the clock by d and yields, modelling a blocking wait
	// tick (e.g. the paper's usleep(100) in sync_specialtask).
	Sleep(d int64)
	// Rand is this worker's deterministic random source (victim selection).
	Rand() *rand.Rand
}

// Platform runs workers to completion.
type Platform interface {
	// Run starts n workers executing body and returns when all have
	// returned. It reports the makespan in nanoseconds: virtual under Sim,
	// wall-clock under Real.
	Run(n int, body func(Proc)) int64
	// Name identifies the platform ("real" or "sim").
	Name() string
}

// Real executes workers as plain goroutines against the wall clock.
type Real struct {
	// Seed makes per-worker random sources reproducible. Zero means 1.
	Seed int64
}

// Name implements Platform.
func (*Real) Name() string { return "real" }

// Run implements Platform.
func (r *Real) Run(n int, body func(Proc)) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: Real.Run with n=%d workers", n))
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	var panicked atomic.Pointer[panicBox]
	wg.Add(n)
	for i := 0; i < n; i++ {
		p := &realProc{id: i, start: start, lazyRand: newLazyRand(seed, i)}
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicBox{val: r})
				}
			}()
			body(p)
		}()
	}
	wg.Wait()
	if pb := panicked.Load(); pb != nil {
		panic(pb.val) // re-raise on the caller's goroutine
	}
	return time.Since(start).Nanoseconds()
}

type panicBox struct{ val any }

// NewRealProcs returns n wall-clock Procs sharing one epoch, for resident
// worker pools that outlive any single run: each Proc is handed to one
// long-lived worker goroutine, and Now stays comparable across all of them
// for the life of the pool. seed follows the same per-worker derivation as
// Real.Run (zero means 1).
func NewRealProcs(n int, seed int64) []Proc {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: NewRealProcs with n=%d workers", n))
	}
	if seed == 0 {
		seed = 1
	}
	start := time.Now()
	procs := make([]Proc, n)
	for i := 0; i < n; i++ {
		procs[i] = &realProc{id: i, start: start, lazyRand: newLazyRand(seed, i)}
	}
	return procs
}

// lazyRand is a worker's deterministic random source, built on the first
// Rand call: only Tascell's victim choice draws from it, and a math/rand
// source costs ~5 KiB to seed.
type lazyRand struct {
	seed int64
	rng  *rand.Rand
}

// newLazyRand derives worker id's seed from the run's seed.
func newLazyRand(seed int64, id int) lazyRand {
	return lazyRand{seed: seed + int64(id)*7919}
}

func (l *lazyRand) Rand() *rand.Rand {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng
}

type realProc struct {
	id    int
	start time.Time
	lazyRand
}

func (p *realProc) ID() int    { return p.id }
func (p *realProc) Now() int64 { return time.Since(p.start).Nanoseconds() }

func (p *realProc) Advance(int64) {}
func (p *realProc) Yield()        {}

// Charges reports whether p's Advance and Yield can do anything. It is false
// only for the wall-clock Procs of Real.Run and NewRealProcs, whose two
// methods are empty, so a worker may test it once and skip every call. Any
// other Proc reports true: a Sim Proc, and any wrapper, which may count,
// delay or forward what it is charged.
func Charges(p Proc) bool {
	_, wall := p.(*realProc)
	return !wall
}

func (p *realProc) Sleep(d int64) {
	switch {
	case d <= 0:
	case d < int64(2*time.Microsecond):
		runtime.Gosched()
	default:
		time.Sleep(time.Duration(d))
	}
}
