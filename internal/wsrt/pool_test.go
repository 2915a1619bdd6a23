package wsrt_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"adaptivetc/internal/core"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/fib"
	"adaptivetc/problems/nqueens"
)

// poolEngine adapts an engine constructor for JobSpec.
func atc() wsrt.PoolEngine { return core.New() }

// TestPoolRunsJobs submits a stream of jobs with known answers through one
// resident pool and checks every result.
func TestPoolRunsJobs(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 2, QueueCapacity: 16, Options: sched.Options{GrowableDeque: true}})
	defer p.Close()

	want := map[string]int64{"fib": 55, "nqueens": 724}
	for i := 0; i < 8; i++ {
		h, err := p.Submit(wsrt.JobSpec{Prog: fib.New(10), Engine: atc()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		res, err := h.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Value != want["fib"] {
			t.Fatalf("job %d: value %d, want %d", i, res.Value, want["fib"])
		}
		if res.Stats.QueueWait < 0 {
			t.Fatalf("job %d: negative queue wait", i)
		}
	}
	h, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(10), Engine: wsrt.Cilk})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want["nqueens"] {
		t.Fatalf("nqueens: value %d, want %d", res.Value, want["nqueens"])
	}
	if got := p.Served(); got != 9 {
		t.Fatalf("served %d jobs, want 9", got)
	}
}

// TestPoolQueueFull fills the admission queue while the pool is blocked on
// a long job and checks the overflow submission is rejected, not queued.
func TestPoolQueueFull(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, QueueCapacity: 2, Options: sched.Options{GrowableDeque: true}})
	defer p.Close()

	// Occupy the workers with a job that waits for our signal.
	ctx, cancel := context.WithCancel(context.Background())
	blocker, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(12), Engine: atc(), Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()

	// Fill the queue behind it.
	handles := make([]*wsrt.JobHandle, 0, 2)
	for i := 0; i < 2; i++ {
		h, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()})
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()}); !errors.Is(err, wsrt.ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	// Unblock; everything queued must still complete.
	cancel()
	if _, err := blocker.Result(); err == nil {
		t.Fatal("cancelled blocker reported success")
	}
	for i, h := range handles {
		if res, err := h.Result(); err != nil || res.Value != 5 {
			t.Fatalf("queued job %d after cancel: value=%d err=%v", i, res.Value, err)
		}
	}
}

// TestPoolUsableAfterAbort cancels a job mid-run and checks the next job on
// the same pool still computes the right answer — the deque reset between
// jobs must drop the aborted job's leftover frames.
func TestPoolUsableAfterAbort(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 2, QueueCapacity: 4, Options: sched.Options{GrowableDeque: true}})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	h, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(13), Engine: atc(), Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	<-h.Started()
	time.Sleep(5 * time.Millisecond) // let frames pile up in the deques
	cancel()
	if _, err := h.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job: err = %v, want context.Canceled", err)
	}

	h2, err := p.Submit(wsrt.JobSpec{Prog: fib.New(12), Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h2.Result(); err != nil || res.Value != 144 {
		t.Fatalf("job after abort: value=%d err=%v, want 144", res.Value, err)
	}
}

// TestPoolJobPanicIsContained converts a program panic into that job's
// failure without taking the pool down.
func TestPoolJobPanicIsContained(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 2, QueueCapacity: 4, Options: sched.Options{GrowableDeque: true}})
	defer p.Close()

	h, err := p.Submit(wsrt.JobSpec{Prog: panicProg{}, Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err == nil {
		t.Fatal("panicking job reported success")
	}

	h2, err := p.Submit(wsrt.JobSpec{Prog: fib.New(10), Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h2.Result(); err != nil || res.Value != 55 {
		t.Fatalf("job after panic: value=%d err=%v, want 55", res.Value, err)
	}
}

// panicProg is a binary tree whose nodes panic at depth 3 — a buggy user
// program the pool must contain.
type panicProg struct{}

type panicWS struct{}

func (panicWS) Clone() sched.Workspace { return panicWS{} }
func (panicWS) Bytes() int             { return 0 }

func (panicProg) Name() string          { return "panicker" }
func (panicProg) Root() sched.Workspace { return panicWS{} }

func (panicProg) Terminal(ws sched.Workspace, depth int) (int64, bool) {
	if depth >= 3 {
		panic("panicProg: boom")
	}
	return 0, false
}

func (panicProg) Moves(ws sched.Workspace, depth int) int     { return 2 }
func (panicProg) Apply(ws sched.Workspace, depth, m int) bool { return true }
func (panicProg) Undo(ws sched.Workspace, depth, m int)       {}

// gateProg is a one-node program whose only leaf blocks until the gate is
// closed — a job that occupies its shard for exactly as long as the test
// wants.
type gateProg struct{ gate chan struct{} }

func (g gateProg) Name() string          { return "gate" }
func (g gateProg) Root() sched.Workspace { return panicWS{} }

func (g gateProg) Terminal(ws sched.Workspace, depth int) (int64, bool) {
	<-g.gate
	return 1, true
}

func (g gateProg) Moves(ws sched.Workspace, depth int) int     { return 0 }
func (g gateProg) Apply(ws sched.Workspace, depth, m int) bool { return false }
func (g gateProg) Undo(ws sched.Workspace, depth, m int)       {}

// TestPoolConcurrentJobs is the sharding acceptance test: with 2 shards, a
// job blocked mid-run must not head-of-line-block the next job — job B
// finishes while job A demonstrably still occupies its shard.
func TestPoolConcurrentJobs(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{
		Workers: 2, MaxConcurrentJobs: 2,
		QueueCapacity: 8, Options: sched.Options{GrowableDeque: true},
	})
	defer p.Close()

	// Open the gate before the deferred Close runs, even when an assertion
	// below fails first — otherwise Close would wait on job A forever.
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	a, err := p.Submit(wsrt.JobSpec{Prog: gateProg{gate: gate}, Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	<-a.Started()

	b, err := p.Submit(wsrt.JobSpec{Prog: fib.New(10), Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Result() // must complete while A is still blocked
	if err != nil || resB.Value != 55 {
		t.Fatalf("job B: value=%d err=%v, want 55", resB.Value, err)
	}
	select {
	case <-a.Done():
		t.Fatal("job A finished before its gate opened — B did not run concurrently")
	default:
	}
	// B's last worker frees B's shard before B's handle resolves, so the
	// count is already just job A.
	if got := p.RunningJobs(); got != 1 {
		t.Fatalf("RunningJobs while A blocked = %d, want 1", got)
	}

	// The two jobs must have run on disjoint shards of width 1.
	shardA, shardB := a.Shard(), b.Shard()
	if len(shardA) != 1 || len(shardB) != 1 || shardA[0] == shardB[0] {
		t.Fatalf("shards not disjoint width-1 groups: A=%v B=%v", shardA, shardB)
	}

	openGate()
	if resA, err := a.Result(); err != nil || resA.Value != 1 {
		t.Fatalf("job A: value=%d err=%v, want 1", resA.Value, err)
	}
}

// TestPoolShardedRace runs 4 concurrent 8-queens jobs on 2 shards — the
// race-detector workload for start-on-arrival, finish-by-last-worker,
// shard-confined stealing and per-shard deque reset. Each job must find the classic 92
// solutions.
func TestPoolShardedRace(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{
		Workers: 4, MaxConcurrentJobs: 2,
		QueueCapacity: 8, Options: sched.Options{GrowableDeque: true},
	})
	defer p.Close()

	const jobs = 4
	handles := make([]*wsrt.JobHandle, jobs)
	engines := []func() wsrt.PoolEngine{atc, func() wsrt.PoolEngine { return wsrt.Cilk }}
	for i := range handles {
		h, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(8), Engine: engines[i%len(engines)]()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Value != 92 {
			t.Fatalf("job %d found %d solutions for 8-queens, want 92", i, res.Value)
		}
		if res.Workers != 2 || len(res.Shard) != 2 {
			t.Fatalf("job %d ran on shard %v (workers=%d), want width 2", i, res.Shard, res.Workers)
		}
	}
	if got := p.Served(); got != jobs {
		t.Fatalf("served %d jobs, want %d", got, jobs)
	}
}

// TestPoolLoneJobKeepsItsShard pins the fixed partition end to end: a job
// admitted to an idle two-slot pool takes its own shard, the lowest, and
// does not widen over the idle one.
func TestPoolLoneJobKeepsItsShard(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{
		Workers: 4, MaxConcurrentJobs: 2,
		QueueCapacity: 8, Options: sched.Options{GrowableDeque: true},
	})
	defer p.Close()

	h, err := p.Submit(wsrt.JobSpec{Prog: fib.New(10), Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Result()
	if err != nil || res.Value != 55 {
		t.Fatalf("lone job: value=%d err=%v, want 55", res.Value, err)
	}
	if want := []int{0, 1}; !slices.Equal(res.Shard, want) || !slices.Equal(h.Shard(), want) {
		t.Fatalf("idle-pool shard = %v (handle %v), want %v", res.Shard, h.Shard(), want)
	}
}

// TestPoolSubmitAfterClose pins the Submit/Close/drain ordering: once
// Close has begun, Submit fails with ErrPoolClosed, and jobs still queued
// at that point are deterministically drained with ErrPoolClosed — never
// raced into execution by the dispatcher's quit-vs-admit select.
func TestPoolSubmitAfterClose(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"submit-after-close-returns", func(t *testing.T) {
			p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, Options: sched.Options{GrowableDeque: true}})
			p.Close()
			if _, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()}); !errors.Is(err, wsrt.ErrPoolClosed) {
				t.Fatalf("submit after close: err = %v, want ErrPoolClosed", err)
			}
		}},
		{"queued-at-close-always-drains", func(t *testing.T) {
			// Repeat to exercise the quit-vs-admit select from many
			// interleavings: a job still queued once Close has observably
			// begun must always drain, never run. "Observably begun" is
			// pinned by waiting for Submit to return ErrPoolClosed — the
			// same lock orders that against the shutdown signal.
			for i := 0; i < 50; i++ {
				p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, QueueCapacity: 4, Options: sched.Options{GrowableDeque: true}})
				gate := make(chan struct{})
				blocker, err := p.Submit(wsrt.JobSpec{Prog: gateProg{gate: gate}, Engine: atc()})
				if err != nil {
					t.Fatal(err)
				}
				<-blocker.Started()
				queued, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() { p.Close(); close(done) }()
				for {
					if _, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()}); errors.Is(err, wsrt.ErrPoolClosed) {
						break // Close has begun: the shutdown signal is up
					}
					time.Sleep(100 * time.Microsecond)
				}
				close(gate) // release the blocker only now — the queued job must drain
				<-done
				if _, err := queued.Result(); !errors.Is(err, wsrt.ErrPoolClosed) {
					t.Fatalf("iteration %d: queued-at-close job err = %v, want ErrPoolClosed", i, err)
				}
			}
		}},
		{"submit-racing-close-never-hangs", func(t *testing.T) {
			// A submission racing Close either fails with ErrPoolClosed or
			// returns a handle that resolves — to a result or ErrPoolClosed —
			// but never hangs and never reports a third error.
			for i := 0; i < 50; i++ {
				p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, QueueCapacity: 4, Options: sched.Options{GrowableDeque: true}})
				got := make(chan error, 1)
				go func() {
					h, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()})
					if err != nil {
						got <- err
						return
					}
					_, err = h.Result()
					got <- err
				}()
				p.Close()
				err := <-got
				if err != nil && !errors.Is(err, wsrt.ErrPoolClosed) {
					t.Fatalf("iteration %d: racing submit resolved with %v, want nil or ErrPoolClosed", i, err)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// TestPoolCloseDrainsQueue fails queued jobs with ErrPoolClosed at
// shutdown instead of leaving their handles hanging.
func TestPoolCloseDrainsQueue(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, QueueCapacity: 8, Options: sched.Options{GrowableDeque: true}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocker, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(12), Engine: atc(), Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()

	queued := make([]*wsrt.JobHandle, 0, 4)
	for i := 0; i < 4; i++ {
		h, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}

	// Start Close first so the shutdown signal is raised before the running
	// job is released — the dispatcher must then drain the queue instead of
	// running it.
	closeDone := make(chan struct{})
	go func() {
		p.Close()
		close(closeDone)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel() // release the running job so Close can finish
	<-closeDone

	if _, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc()}); !errors.Is(err, wsrt.ErrPoolClosed) {
		t.Fatalf("submit after close: err = %v, want ErrPoolClosed", err)
	}
	for i, h := range queued {
		if _, err := h.Result(); !errors.Is(err, wsrt.ErrPoolClosed) {
			t.Fatalf("queued job %d: err = %v, want ErrPoolClosed", i, err)
		}
	}
}

// TestPoolQuarantineHeals is the fault-plane acceptance pin: a worker
// panic injected by the fault plan fails ONLY the owning job — the error
// wraps ErrJobPanicked, the quarantine counter moves, the shard re-enters
// the allocator, and the very next job on that same shard completes with
// the right answer and a clean trace.
func TestPoolQuarantineHeals(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, QueueCapacity: 4})
	defer p.Close()

	h, err := p.Submit(wsrt.JobSpec{
		Prog:   nqueens.NewArray(5),
		Engine: atc(),
		Faults: faults.New(faults.Spec{Seed: 20100424, Panic: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); !errors.Is(err, sched.ErrJobPanicked) {
		t.Fatalf("faulted job: err = %v, want ErrJobPanicked", err)
	}
	if got := p.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}

	rec := trace.NewRecorder()
	defer rec.Release()
	h2, err := p.Submit(wsrt.JobSpec{Prog: nqueens.NewArray(5), Engine: atc(), Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h2.Result()
	if err != nil || res.Value != 10 {
		t.Fatalf("job on healed shard: value=%d err=%v, want 10", res.Value, err)
	}
	if cerr := rec.Check(res.Value, 10); cerr != nil {
		t.Fatalf("healed shard trace: %v", cerr)
	}
	if len(h.Shard()) != 1 || h.Shard()[0] != h2.Shard()[0] {
		t.Fatalf("healed job ran on shard %v, want the quarantined shard %v", h2.Shard(), h.Shard())
	}
	if got := p.Quarantined(); got != 1 {
		t.Fatalf("clean job moved Quarantined() to %d", got)
	}
}

// TestPoolMoreJobsThanWorkers floods a 2-worker pool with 6 concurrent
// jobs: every job completes with the right answer and the busy/running
// counters settle back to zero.
func TestPoolMoreJobsThanWorkers(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{
		Workers: 2, MaxConcurrentJobs: 2,
		QueueCapacity: 16,
	})
	defer p.Close()

	var hs []*wsrt.JobHandle
	for i := 0; i < 6; i++ {
		h, err := p.Submit(wsrt.JobSpec{Prog: fib.New(10), Engine: atc()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if res, err := h.Result(); err != nil || res.Value != 55 {
			t.Fatalf("job %d: value=%d err=%v, want 55", i, res.Value, err)
		}
	}
	waitSettled(t, p)
}

// TestPoolSplitAfterQuarantine kills a job and then runs a pair of jobs
// over the healed workers: the pair must both finish on disjoint shards,
// one of them the quarantined shard.
func TestPoolSplitAfterQuarantine(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{
		Workers: 4, MaxConcurrentJobs: 2,
		QueueCapacity: 8,
	})
	defer p.Close()

	h, err := p.Submit(wsrt.JobSpec{
		Prog:   nqueens.NewArray(6),
		Engine: atc(),
		Faults: faults.New(faults.Spec{Seed: 7, Panic: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); !errors.Is(err, sched.ErrJobPanicked) {
		t.Fatalf("faulted job: err = %v, want ErrJobPanicked", err)
	}

	// Hold one job mid-run so the second demonstrably runs beside it.
	gate := make(chan struct{})
	g, err := p.Submit(wsrt.JobSpec{Prog: gateProg{gate: gate}, Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	<-g.Started()
	h2, err := p.Submit(wsrt.JobSpec{Prog: fib.New(10), Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h2.Result(); err != nil || res.Value != 55 {
		t.Fatalf("job beside gated job: value=%d err=%v, want 55", res.Value, err)
	}
	close(gate)
	if res, err := g.Result(); err != nil || res.Value != 1 {
		t.Fatalf("gated job: value=%d err=%v, want 1", res.Value, err)
	}
	if !slices.Equal(g.Shard(), h.Shard()) {
		t.Fatalf("gated job ran on %v, want the healed shard %v", g.Shard(), h.Shard())
	}
	for _, w := range g.Shard() {
		if slices.Contains(h2.Shard(), w) {
			t.Fatalf("concurrent healed shards overlap: %v / %v", g.Shard(), h2.Shard())
		}
	}
	waitSettled(t, p)
}

// waitSettled polls until the pool's busy and running counters return to
// zero — quarantines and floods must not leave phantom occupancy behind.
func waitSettled(t *testing.T, p *wsrt.Pool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if p.BusyWorkers() == 0 && p.RunningJobs() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pool never settled: busy=%d running=%d", p.BusyWorkers(), p.RunningJobs())
}

// TestPoolStartOrderPinned pins where queued jobs start: ten gated jobs
// submitted at once to two shards of two workers, released one at a time in
// a fixed order. Each release frees one shard, and the oldest queued job
// starts on it.
func TestPoolStartOrderPinned(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 4, MaxConcurrentJobs: 2, QueueCapacity: 16})
	defer p.Close()

	const jobs = 10
	gates := make([]chan struct{}, jobs)
	hs := make([]*wsrt.JobHandle, jobs)
	for i := range hs {
		gates[i] = make(chan struct{})
		h, err := p.Submit(wsrt.JobSpec{Prog: gateProg{gate: gates[i]}, Engine: atc()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		hs[i] = h
	}
	released := make([]bool, jobs)
	release := func(i int) {
		if !released[i] {
			released[i] = true
			close(gates[i])
		}
	}
	defer func() {
		for i := range gates {
			release(i)
		}
	}()

	type start struct {
		job   int
		shard []int
	}
	want := []start{
		{0, []int{0, 1}}, {1, []int{2, 3}},
		{2, []int{2, 3}}, {3, []int{0, 1}}, {4, []int{0, 1}}, {5, []int{2, 3}},
		{6, []int{2, 3}}, {7, []int{2, 3}}, {8, []int{0, 1}}, {9, []int{0, 1}},
	}
	releases := []int{1, 0, 3, 2, 5, 6, 4, 8, 7, 9}

	var got []start
	started := make([]bool, jobs)
	// await waits until n jobs have started and records the new starts.
	await := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < n {
			for i, h := range hs {
				select {
				case <-h.Started():
					if !started[i] {
						started[i] = true
						got = append(got, start{i, h.Shard()})
					}
				default:
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d jobs started, want %d: %v", len(got), n, got)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if len(got) > n {
			t.Fatalf("%d jobs started, want %d: %v", len(got), n, got)
		}
	}
	await(2)
	for _, r := range releases {
		release(r)
		if res, err := hs[r].Result(); err != nil || res.Value != 1 {
			t.Fatalf("job %d: value=%d err=%v, want 1", r, res.Value, err)
		}
		await(min(len(got)+1, jobs))
	}
	for i := range want {
		if got[i].job != want[i].job || !slices.Equal(got[i].shard, want[i].shard) {
			t.Fatalf("start %d: job %d on %v, want job %d on %v (all starts %v)",
				i, got[i].job, got[i].shard, want[i].job, want[i].shard, got)
		}
	}
}

// TestPoolQueuedCancelSettlesAtOnce: a queued job whose context is cancelled
// settles with context.Canceled at once, never starts, and does not wait for
// the job ahead of it to free the shard.
func TestPoolQueuedCancelSettlesAtOnce(t *testing.T) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 1, QueueCapacity: 4})
	defer p.Close()
	gate := make(chan struct{})
	defer close(gate)

	blocker, err := p.Submit(wsrt.JobSpec{Prog: gateProg{gate: gate}, Engine: atc()})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued, err := p.Submit(wsrt.JobSpec{Prog: fib.New(5), Engine: atc(), Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-queued.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the cancelled queued job was still pending after 2s behind a running job")
	}
	if _, err := queued.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job: err = %v, want context.Canceled", err)
	}
	select {
	case <-queued.Started():
		t.Fatal("the cancelled queued job started")
	case <-blocker.Done():
		t.Fatal("the blocker finished before its gate opened")
	default:
	}
}
