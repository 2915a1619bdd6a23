// The resident scheduler pool: the pool-lifetime half of the pool/job
// split. A Pool owns N long-lived worker goroutines (Real platform), their
// deques and their frame free-lists, and executes a stream of jobs — root
// tasks of any wsrt engine — against them. Between jobs the workers park on
// a channel instead of exiting, so a job's cost is one wake/barrier cycle,
// not deque construction, goroutine spawning and free-list warm-up.
//
// The pool is its workers; no goroutine coordinates them. Submit never
// blocks: it starts a job on the lowest-numbered free shard — one of the
// disjoint groups of workers the pool is cut into at start (shard.go) — or
// appends it to a bounded FIFO, and a full FIFO is reported as ErrQueueFull
// (backpressure) rather than letting callers pile up behind a busy pool.
// The last of a job's workers to leave it finalises it, frees the shard and
// starts the oldest queued job there. Work-stealing parallelism is *within*
// a shard; a job's runtime is built over the shard's deques only, so steals
// are confined to the shard's victim set, one job's need_task starvation
// signal cannot re-open another job's subtree, and every scheduler
// invariant of the batch runtime holds per job exactly as it does for a
// whole-pool run. A per-job tracer therefore still observes its job in
// isolation, and the memory of a misbehaving job is bounded to one shard's
// worth of deques.
//
// Every job gets its own Runtime (value, failure, stats, tracer) and its
// own cooperative stop flag, checked at the runtime's poll points. One
// context.AfterFunc on the submitter's context retires the job while it is
// queued and fires its stop flag while it runs; a cancelled or expired job
// unwinds through the sched.Abort path, and its last worker then resets the
// shard's deques — and only the shard's — so leftover frames cannot poison
// the next job while neighbouring shards keep running untouched.
package wsrt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc/internal/deque"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/vtime"
)

// PoolEngine is implemented by scheduling engines whose jobs can run on a
// resident Pool: everything built on this package (Cilk, Cilk-SYNCHED, the
// cut-off baselines, AdaptiveTC, help-first, SLAW). Tascell and the serial
// reference are not pool engines — they bring their own runtimes.
type PoolEngine interface {
	// Name identifies the engine in results.
	Name() string
	// NewExec builds the per-job execution strategy for a pool (or run)
	// with n workers. opt supplies strategy parameters (cutoff overrides,
	// fast_2 multiplier); it carries no pool state.
	NewExec(n int, opt sched.Options) Engine
}

// Pool errors.
var (
	// ErrQueueFull reports that the admission queue is at capacity; the
	// submitter should back off and retry (backpressure).
	ErrQueueFull = errors.New("wsrt: job queue full")
	// ErrPoolClosed reports a submission to (or a job drained by) a pool
	// that has been closed.
	ErrPoolClosed = errors.New("wsrt: pool closed")
)

// KnownAbort reports whether err is a way a job may fail without a bug: a
// deque overflow, a panic quarantined as sched.ErrJobPanicked, a deadline
// or cancellation, or pool shutdown.
func KnownAbort(err error) bool {
	return errors.Is(err, sched.ErrDequeOverflow) ||
		errors.Is(err, sched.ErrJobPanicked) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrPoolClosed)
}

// PoolConfig configures NewPool.
type PoolConfig struct {
	// Workers is the worker count; zero means 1.
	Workers int
	// QueueCapacity bounds the admission queue; zero means 64.
	QueueCapacity int
	// MaxConcurrentJobs is the number of jobs the pool will run at once,
	// each on its own disjoint worker shard; the workers are cut into that
	// many fixed shards of near-equal width (see shard.go). Zero or one
	// means the classic single-job pool (one shard spanning every worker);
	// values above Workers are clamped to Workers.
	MaxConcurrentJobs int
	// Options supplies the pool-wide scheduling parameters: deque capacity
	// and growability, max_stolen_num, steal policy, seed. Platform, Ctx
	// and Tracer are ignored — the pool is always Real-platform, and
	// context/tracer are per-job (see JobSpec). Faults are per-job too
	// (JobSpec.Faults).
	Options sched.Options
}

// queueCapacityOrDefault returns the admission queue bound.
func (c PoolConfig) queueCapacityOrDefault() int {
	if c.QueueCapacity <= 0 {
		return 64
	}
	return c.QueueCapacity
}

// JobSpec describes one job: a root task to execute on the pool.
type JobSpec struct {
	// Prog is the program whose root task the job runs.
	Prog sched.Program
	// Engine is the scheduling strategy for this job.
	Engine PoolEngine
	// Ctx, when non-nil, cancels the job cooperatively — while it is still
	// queued (it then settles at once and never starts) or mid-run (it
	// aborts at the next poll point). A deadline on Ctx bounds the job's
	// time from submission. Nil means the job cannot be cancelled.
	Ctx context.Context
	// Tracer, when non-nil, records the job's scheduler events. The pool
	// Inits it at job start with the job's shard width; the recorder must
	// not be shared with another in-flight job.
	Tracer *trace.Recorder
	// Faults, when non-nil, injects the plan's worker- and deque-level
	// faults into this job only: stalls and panics at node entry, delayed
	// deposits, forced overflows, forced steal failures. Streams are
	// derived per shard-local worker, so the same plan on the same seed
	// draws the same decisions whichever shard hosts the job.
	Faults *faults.Plan
	// StealPolicy overrides the pool-wide steal strategy
	// (PoolConfig.Options.StealPolicy) for this job: "random",
	// "steal-half", "richest-first" or "shard-local". Empty means the pool
	// default; unknown names fall back to "random".
	StealPolicy string
	// FirstSolution runs the job with first-solution-wins semantics (see
	// sched.Options.FirstSolution): the first nonzero terminal value becomes
	// the result, siblings are cancelled cooperatively. Done jobs should be
	// invariant-checked with trace.Laws{Truncated: true} — the losers'
	// deposit cascades are truncated by design.
	FirstSolution bool
}

// JobHandle is the submitter's view of an in-flight job.
type JobHandle struct {
	started chan struct{}
	done    chan struct{}
	shard   []int
	startAt time.Time
	endAt   time.Time
	res     sched.Result
	err     error
}

// Started is closed when the job is bound to its shard and the shard's
// workers begin.
func (h *JobHandle) Started() <-chan struct{} { return h.started }

// Done is closed when the job has finished (completed, failed, cancelled,
// or drained by Close).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Shard returns the global ids of the pool workers the job is bound to.
// Valid after Started; nil for a job that never started.
func (h *JobHandle) Shard() []int { return h.shard }

// Interval returns the window during which the job held its shard
// exclusively: start is stamped before the shard's workers wake, end after
// the job's last worker left it and the shard's deques were reset, but
// before the shard returns to the free set. Valid after Done; both zero
// for a job that never started.
func (h *JobHandle) Interval() (start, end time.Time) { return h.startAt, h.endAt }

// Result blocks until the job finishes and returns its outcome. The
// result's Stats.QueueWait records the admission delay; Makespan is the
// job's wall-clock run time; Workers and Shard describe the worker group
// the job actually ran on.
func (h *JobHandle) Result() (sched.Result, error) {
	<-h.done
	return h.res, h.err
}

// poolJob pairs a spec with its handle and job-scoped runtime.
type poolJob struct {
	spec      JobSpec
	name      string
	rt        *Runtime // set under Pool.mu when the job starts
	submitted time.Time
	started   time.Time
	part      int               // index of the shard in the pool's partition
	shard     []int             // global worker ids, shard-local order (a copy)
	deques    []deque.WorkDeque // the shard's deques, indexed by local id
	workers   []*Worker         // the shard's workers, indexed by local id
	left      atomic.Int32      // shard workers still running the job
	unwatch   func() bool       // stops the context.AfterFunc; nil without a Ctx
	h         *JobHandle
}

func (j *poolJob) settle(res sched.Result, err error) {
	if j.unwatch != nil {
		j.unwatch()
	}
	j.h.res, j.h.err = res, err
	close(j.h.done)
}

// shardRun is one worker's wake message: the job to run and the worker's
// local index within the job's shard.
type shardRun struct {
	job   *poolJob
	local int
}

// Pool is a resident scheduler: long-lived workers serving a stream of
// jobs, up to MaxConcurrentJobs of them concurrently on disjoint worker
// shards. Create with NewPool, submit with Submit, shut down with Close.
type Pool struct {
	n   int
	opt sched.Options

	deques   []deque.WorkDeque
	workers  []*Worker
	shards   *shardAlloc
	wake     []chan shardRun // one slot each: a shard runs one job at a time, so no send blocks
	idleWake []chan struct{} // per shard, a slot per worker (a token per parked thief); its job's runtime borrows it
	queueCap int
	jobs     sync.WaitGroup // started jobs not yet finished
	joined   sync.WaitGroup // workers
	wakeOnce sync.Once      // Close closes the wake channels once

	mu     sync.Mutex // guards closed, queue and the shards' busy flags
	closed bool
	queue  []*poolJob // FIFO; non-empty only while every shard is busy

	running     atomic.Int64 // jobs currently occupying a shard
	busy        atomic.Int64 // workers currently bound to a job
	served      atomic.Int64 // jobs finished (any outcome) since pool start
	quarantined atomic.Int64 // jobs failed by a panic (sched.ErrJobPanicked)
}

// NewPool builds a resident pool and starts its workers; they park until
// the first job arrives.
func NewPool(cfg PoolConfig) *Pool {
	opt := cfg.Options
	if cfg.Workers > 0 {
		opt.Workers = cfg.Workers
	}
	n := opt.WorkersOrDefault()
	shards := newShardAlloc(n, cfg.MaxConcurrentJobs)
	p := &Pool{
		n:        n,
		opt:      opt,
		deques:   make([]deque.WorkDeque, n),
		workers:  make([]*Worker, n),
		shards:   shards,
		wake:     make([]chan shardRun, n),
		idleWake: make([]chan struct{}, len(shards.parts)),
		queueCap: cfg.queueCapacityOrDefault(),
	}
	procs := vtime.NewRealProcs(n, opt.Seed)
	for i := 0; i < n; i++ {
		p.deques[i] = newDeque(opt)
		p.workers[i] = &Worker{Walker: sched.Walker{Proc: procs[i], ID: i}, Deque: p.deques[i]}
		p.wake[i] = make(chan shardRun, 1)
	}
	for k, shard := range shards.parts {
		p.idleWake[k] = make(chan struct{}, len(shard))
	}
	p.joined.Add(n)
	for i := 0; i < n; i++ {
		go p.workerLoop(i)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.n }

// MaxConcurrentJobs returns the number of jobs the pool can run at once.
func (p *Pool) MaxConcurrentJobs() int { return len(p.shards.parts) }

// QueueDepth returns the number of jobs waiting for admission right now.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// RunningJobs returns the number of jobs currently bound to shards.
func (p *Pool) RunningJobs() int64 { return p.running.Load() }

// BusyWorkers returns the number of workers currently bound to a job.
func (p *Pool) BusyWorkers() int64 { return p.busy.Load() }

// Served returns the number of jobs finished since the pool started.
func (p *Pool) Served() int64 { return p.served.Load() }

// LiveShards returns the worker groups currently bound to running jobs,
// sorted by their first (lowest) global worker id so the view is stable
// across scrapes. Each inner slice is a copy.
func (p *Pool) LiveShards() [][]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shards.live()
}

// Quarantined returns the number of jobs that failed by a panic in their
// program or engine. Each such job was contained to its own shard: the
// shard's deques were reset and the shard freed, and the pool kept serving.
func (p *Pool) Quarantined() int64 { return p.quarantined.Load() }

// Submit starts a job on the lowest-numbered free shard, or queues it
// behind the running ones, without blocking. It returns ErrQueueFull when
// the admission queue is at capacity and ErrPoolClosed after Close. A job
// whose Ctx is already done settles at once and never starts. Submit and
// Close order on one lock: once Close has begun, Submit returns
// ErrPoolClosed, and a job queued before that point either starts or is
// drained with ErrPoolClosed, never both.
func (p *Pool) Submit(spec JobSpec) (*JobHandle, error) {
	if spec.Prog == nil || spec.Engine == nil {
		return nil, errors.New("wsrt: JobSpec needs Prog and Engine")
	}
	job := &poolJob{
		spec:      spec,
		name:      spec.Engine.Name(),
		submitted: time.Now(),
		h: &JobHandle{
			started: make(chan struct{}),
			done:    make(chan struct{}),
		},
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	ctx := spec.Ctx
	if ctx != nil && ctx.Err() != nil {
		p.retire(job, context.Cause(ctx))
		return job.h, nil
	}
	k := p.shards.grab()
	if k < 0 && len(p.queue) == p.queueCap {
		return nil, ErrQueueFull
	}
	if ctx != nil {
		job.unwatch = context.AfterFunc(ctx, func() { p.cancel(job) })
	}
	if k < 0 {
		p.queue = append(p.queue, job)
	} else {
		p.start(job, k)
	}
	return job.h, nil
}

// Close shuts the pool down: every job still queued is failed with
// ErrPoolClosed, running jobs finish, and the workers exit. Close blocks
// until the workers have joined; it is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	for _, job := range p.queue {
		p.retire(job, ErrPoolClosed)
	}
	p.queue = nil
	p.mu.Unlock()
	p.jobs.Wait()
	p.wakeOnce.Do(func() {
		for _, c := range p.wake {
			close(c)
		}
	})
	p.joined.Wait()
}

// cancel is a job's context.AfterFunc: a queued job is retired where it
// stands, a running one has its stop flag fired. A job that has finished
// has left the queue, so its stop flag is all it can touch.
func (p *Pool) cancel(job *poolJob) {
	cause := context.Cause(job.spec.Ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.Index(p.queue, job); i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
		p.retire(job, cause)
	} else if job.rt != nil {
		job.rt.stop.Signal(cause)
	}
}

// retire settles a job that never started (cancelled, or drained by
// Close). The caller holds p.mu.
func (p *Pool) retire(job *poolJob, err error) {
	res := sched.Result{Engine: job.name, Program: job.spec.Prog.Name()}
	res.Stats.QueueWait = time.Since(job.submitted).Nanoseconds()
	p.served.Add(1)
	job.settle(res, err)
}

// start binds job to shard k, which the caller has marked busy, builds the
// job's shard-scoped runtime and wakes the shard's first worker. The caller
// holds p.mu, so a cancel sees either the queued job or its runtime.
// The runtime's deque slice is exactly the shard's deques, so the thief
// loop's victim set — and with it the need_task/stolen_num starvation
// machinery living in those deques — is confined to the shard by
// construction.
func (p *Pool) start(job *poolJob, k int) {
	// The handle and the result get a copy: the partition is the pool's.
	shard := slices.Clone(p.shards.parts[k])
	width := len(shard)
	job.part, job.shard = k, shard
	job.started = time.Now()
	job.deques = make([]deque.WorkDeque, width)
	job.workers = make([]*Worker, width)
	for li, gi := range shard {
		job.deques[li] = p.deques[gi]
		job.workers[li] = p.workers[gi]
	}
	opt := p.opt
	opt.Tracer, opt.Faults = job.spec.Tracer, job.spec.Faults
	opt.FirstSolution = opt.FirstSolution || job.spec.FirstSolution
	if job.spec.StealPolicy != "" {
		opt.StealPolicy = job.spec.StealPolicy
	}
	rt := newRuntime(job.spec.Prog, job.spec.Engine.NewExec(width, p.opt), job.deques, opt)
	// One job at a time holds a shard, and every parked thief has consumed
	// its token by the time its job ends, so the channel comes back empty.
	rt.wake = p.idleWake[k]
	if rt.tracer != nil {
		rt.tracer.SetScope(fmt.Sprintf("%s/%s shard %v", job.name, job.spec.Prog.Name(), shard))
	}
	job.rt = rt
	job.left.Store(int32(width))
	p.jobs.Add(1)
	p.running.Add(1)
	p.busy.Add(int64(width))
	job.h.shard = shard
	job.h.startAt = job.started
	close(job.h.started)
	p.wake[shard[0]] <- shardRun{job: job}
}

// finish is run by the last of a job's workers to leave it: it finalises
// the result, resets the shard's deques, frees the shard and starts the
// oldest queued job on it. The deque reset is confined to the finishing
// job's shard — neighbouring shards are live and must not be touched — and
// happens before the shard returns to the free set, so the next job bound
// to these workers starts from the same state a fresh deque would. The
// queue is non-empty only while every shard is busy, so the shard freed
// here is the lowest free one.
func (p *Pool) finish(job *poolJob) {
	rt := job.rt
	res, err := rt.result(job.name, job.workers)
	res.Stats.QueueWait = job.started.Sub(job.submitted).Nanoseconds()
	res.Shard = job.shard
	if rt.tracer != nil {
		for _, d := range job.deques {
			d.SetTrace(nil)
		}
	}
	if rt.faults != nil {
		for _, d := range job.deques {
			d.SetFailSteal(nil)
		}
	}
	for _, d := range job.deques {
		d.Reset()
	}
	res.Makespan = time.Since(job.started).Nanoseconds()
	if errors.Is(err, sched.ErrJobPanicked) {
		// Panic quarantine: the job failed, its shard was reset above and
		// heals by being freed like any other.
		p.quarantined.Add(1)
	}
	job.h.endAt = time.Now()
	p.mu.Lock()
	p.shards.release(job.part)
	p.busy.Add(-int64(len(job.shard)))
	p.running.Add(-1)
	p.served.Add(1)
	if len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = slices.Delete(p.queue, 0, 1)
		p.start(next, p.shards.grab())
	}
	p.mu.Unlock()
	job.settle(res, err)
	p.jobs.Done()
}

// workerLoop is one resident worker: park on the wake channel, run the
// job, leave it, park again. This is the thief loop's "park between jobs
// instead of exiting".
func (p *Pool) workerLoop(i int) {
	defer p.joined.Done()
	w := p.workers[i]
	for run := range p.wake[i] {
		job := run.job
		if run.local == 0 {
			// start wakes only the root's worker, which wakes the rest of
			// its shard before it runs the root. A thief woken ahead of it
			// can take the waker's next-to-run slot, fail its steals on an
			// empty deque and raise need_task before the root has pushed
			// anything (DESIGN §8.4).
			for li, gi := range job.shard[1:] {
				p.wake[gi] <- shardRun{job: job, local: li + 1}
			}
		}
		w.bind(job.rt, run.local)
		w.runJob(true)
		w.rt = nil
		w.Start(nil, nil, nil, nil) // drop the job's program, costs, stop flag and fault stream
		// The workspace pool holds program-typed workspaces; the next job
		// bound to this worker may run a different program, and Clone
		// must never hand it a leftover (CopyFrom would panic on the
		// type mismatch). Frames are program-agnostic — their
		// free-list stays resident across jobs.
		w.DropWorkspacePool()
		if job.left.Add(-1) == 0 {
			p.finish(job)
		}
	}
}
