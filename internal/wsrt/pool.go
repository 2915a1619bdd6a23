// The resident scheduler pool: the pool-lifetime half of the pool/job
// split. A Pool owns N long-lived worker goroutines (Real platform), their
// deques and their frame free-lists, and executes a stream of jobs — root
// tasks of any wsrt engine — against them. Between jobs the workers park on
// a channel instead of exiting, so a job's cost is one wake/barrier cycle,
// not deque construction, goroutine spawning and free-list warm-up.
//
// Admission is controlled by a bounded queue: Submit never blocks, and a
// full queue is reported as ErrQueueFull (backpressure) rather than letting
// callers pile up behind a busy pool. Up to MaxConcurrentJobs jobs run at
// once, each bound to its own shard — one of the disjoint groups of workers
// the pool is cut into at start (shard.go). Work-stealing parallelism is
// *within* a shard; a job's runtime is built over the shard's deques only,
// so steals are confined to the shard's victim set, one job's need_task
// starvation signal cannot re-open another job's subtree, and every
// scheduler invariant of the batch runtime holds per job exactly as it
// does for a whole-pool run. A per-job tracer therefore still observes its
// job in isolation, and the memory of a misbehaving job is bounded to one
// shard's worth of deques.
//
// Every job gets its own Runtime (value, failure, stats, tracer) and its
// own cooperative stop flag wired to the submitter's context, checked at
// the runtime's poll points; a cancelled or expired job unwinds through the
// sched.Abort path, and the finisher then resets the shard's deques — and
// only the shard's — so leftover frames cannot poison the next job while
// neighbouring shards keep running untouched.
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
	// Options supplies the pool-wide scheduling parameters: cost model,
	// deque capacity and growability, max_stolen_num, seed. Platform, Ctx
	// and Tracer are ignored — the pool is always Real-platform, and
	// context/tracer are per-job (see JobSpec).
	Options sched.Options
	// Faults, when non-nil, injects pool-level faults: admission-queue
	// saturation (Submit reports ErrQueueFull though capacity remains) and
	// shard-allocator starvation (the dispatcher briefly cannot take a free
	// shard). Worker-level faults are per-job (see JobSpec.Faults). Nil —
	// the default — costs nothing anywhere.
	Faults *faults.Plan
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
	// queued (it then never starts) or mid-run (it aborts at the next poll
	// point). Nil means the job cannot be cancelled.
	Ctx context.Context
	// Tracer, when non-nil, records the job's scheduler events. The pool
	// Inits it at job start with the job's shard width; the recorder must
	// not be shared with another in-flight job.
	Tracer *trace.Recorder
	// Profile enables the per-phase time breakdown for this job.
	Profile bool
	// Faults, when non-nil, injects the plan's worker- and deque-level
	// faults into this job only: stalls and panics at node entry, delayed
	// deposits, forced overflows, forced steal failures. Streams are
	// derived per shard-local worker, so the same plan on the same seed
	// draws the same decisions whichever shard hosts the job.
	Faults *faults.Plan
	// Deadline, when positive, bounds the job's run time (counted from the
	// moment its shard workers wake, not from submission). On expiry the
	// job's cooperative stop flag fires and the job aborts at the next poll
	// point with an error wrapping context.DeadlineExceeded — converting a
	// stalled worker into an orderly abort instead of a wedged shard.
	Deadline time.Duration
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

// Started is closed when the job leaves the queue and its shard's workers
// begin.
func (h *JobHandle) Started() <-chan struct{} { return h.started }

// Done is closed when the job has finished (completed, failed, cancelled,
// or drained by Close).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Shard returns the global ids of the pool workers the job is bound to.
// Valid after Started; nil for a job that never started.
func (h *JobHandle) Shard() []int { return h.shard }

// Interval returns the window during which the job held its shard
// exclusively: start is stamped before the shard's workers wake, end after
// the last worker hit the barrier and the shard's deques were reset, but
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
	rt        *Runtime
	submitted time.Time
	started   time.Time
	part      int               // index of the shard in the pool's partition
	shard     []int             // global worker ids, shard-local order (a copy)
	deques    []deque.WorkDeque // the shard's deques, indexed by local id
	workers   []*Worker         // the shard's workers, indexed by local id
	release   func()            // context watcher release
	deadline  *time.Timer       // run-deadline timer; nil unless JobSpec.Deadline
	wg        sync.WaitGroup    // shard workers still running this job
	h         *JobHandle
}

func (j *poolJob) finish(res sched.Result, err error) {
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
	wake     []chan shardRun
	idleWake []chan struct{} // per shard, a slot per worker (a token per parked thief); its job's runtime borrows it
	queue    chan *poolJob
	finished chan *poolJob // finishers hand shards back to the dispatcher
	quit     chan struct{}
	joined   sync.WaitGroup // dispatcher + workers

	mu     sync.Mutex // guards Submit/Close handshake
	closed bool

	inflight    atomic.Int64 // jobs submitted and not yet finished
	running     atomic.Int64 // jobs currently occupying a shard
	busy        atomic.Int64 // workers currently bound to a job
	served      atomic.Int64 // jobs finished (any outcome) since pool start
	quarantined atomic.Int64 // jobs failed by a panic (ErrJobPanicked)

	// Pool-level fault streams (nil unless PoolConfig.Faults): admitFI is
	// drawn under p.mu in Submit, shardFI only by the dispatcher.
	admitFI *faults.Injector
	shardFI *faults.Injector
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
	maxJobs := len(shards.parts)
	p := &Pool{
		n:        n,
		opt:      opt,
		deques:   make([]deque.WorkDeque, n),
		workers:  make([]*Worker, n),
		shards:   shards,
		wake:     make([]chan shardRun, n),
		idleWake: make([]chan struct{}, maxJobs),
		queue:    make(chan *poolJob, cfg.queueCapacityOrDefault()),
		finished: make(chan *poolJob, maxJobs),
		quit:     make(chan struct{}),
		admitFI:  cfg.Faults.Admission(),
		shardFI:  cfg.Faults.ShardAlloc(),
	}
	procs := vtime.NewRealProcs(n, opt.Seed)
	for i := 0; i < n; i++ {
		p.deques[i] = newDeque(opt)
		p.workers[i] = &Worker{Walker: sched.Walker{Proc: procs[i]}, ID: i, Deque: p.deques[i]}
		p.wake[i] = make(chan shardRun)
	}
	for k, shard := range shards.parts {
		p.idleWake[k] = make(chan struct{}, len(shard))
	}
	p.joined.Add(n + 1)
	for i := 0; i < n; i++ {
		go p.workerLoop(i)
	}
	go p.dispatch()
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.n }

// MaxConcurrentJobs returns the number of jobs the pool can run at once.
func (p *Pool) MaxConcurrentJobs() int { return len(p.shards.parts) }

// QueueDepth returns the number of jobs waiting for admission right now.
func (p *Pool) QueueDepth() int { return len(p.queue) }

// QueueCapacity returns the admission queue bound.
func (p *Pool) QueueCapacity() int { return cap(p.queue) }

// InFlight returns the number of submitted jobs that have not finished
// (queued + running).
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// Running reports whether any job currently occupies workers.
func (p *Pool) Running() bool { return p.running.Load() != 0 }

// RunningJobs returns the number of jobs currently bound to shards.
func (p *Pool) RunningJobs() int64 { return p.running.Load() }

// BusyWorkers returns the number of workers currently bound to a job.
func (p *Pool) BusyWorkers() int64 { return p.busy.Load() }

// Served returns the number of jobs finished since the pool started.
func (p *Pool) Served() int64 { return p.served.Load() }

// LiveShards returns the worker groups currently bound to running jobs,
// sorted by their first (lowest) global worker id so the view is stable
// across scrapes. Each inner slice is a copy.
func (p *Pool) LiveShards() [][]int { return p.shards.live() }

// Quarantined returns the number of jobs that failed by a panic in their
// program or engine. Each such job was contained to its own shard: the
// shard's deques were reset and the shard freed, and the pool kept serving.
func (p *Pool) Quarantined() int64 { return p.quarantined.Load() }

// Submit enqueues a job without blocking. It returns ErrQueueFull when the
// admission queue is at capacity and ErrPoolClosed after Close. The
// closed check and the enqueue happen under one lock, ordered against
// Close's closed store: once Close has begun, Submit deterministically
// returns ErrPoolClosed, and a job enqueued before that point is either
// run or — if the dispatcher observes the shutdown first — deterministically
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
	if p.admitFI != nil && p.admitFI.RejectAdmission() {
		// Injected admission saturation: indistinguishable from a full
		// queue, so callers exercise their backpressure handling. The
		// stream is drawn under p.mu, which serialises it.
		return nil, ErrQueueFull
	}
	select {
	case p.queue <- job:
		p.inflight.Add(1)
		return job.h, nil
	default:
		return nil, ErrQueueFull
	}
}

// Close shuts the pool down: running jobs finish, every job still queued
// is failed with ErrPoolClosed, and the workers exit. Close blocks until
// all goroutines have joined; it is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.joined.Wait()
		return
	}
	// Close quit under the same lock that orders Submit's closed check:
	// any Submit that observes closed (and any outside observer it
	// unblocks) is guaranteed the dispatcher's shutdown signal is already
	// raised, so a job still queued at that point can only drain.
	p.closed = true
	close(p.quit)
	p.mu.Unlock()
	p.joined.Wait()
}

// dispatch is the pool's coordinator goroutine: it admits jobs while a
// shard is free, binds each admitted job to a shard, and reclaims shards as
// jobs finish. Jobs it cannot place yet stay in the bounded queue (at most
// one, already received, waits in the deferred slot), so admission
// backpressure is never weakened by an internal unbounded buffer.
func (p *Pool) dispatch() {
	defer func() {
		for _, c := range p.wake {
			close(c)
		}
		p.joined.Done()
	}()
	var deferred *poolJob // received from the queue, waiting for a shard
	for {
		// Prefer shutdown over further admissions once quit is closed.
		select {
		case <-p.quit:
			p.shutdown(deferred)
			return
		default:
		}
		if deferred != nil {
			if !p.tryStart(deferred) {
				// Without fault injection a deferred job can only be
				// unblocked by a finishing job (or shutdown). Injected
				// allocator starvation can refuse a shard with nothing
				// running at all, so the fault plane adds a retry tick —
				// otherwise the dispatcher would wait forever on a finish
				// that cannot come. Nil channel (no faults): zero cost.
				var retry <-chan time.Time
				var retryT *time.Timer
				if p.shardFI != nil {
					retryT = time.NewTimer(100 * time.Microsecond)
					retry = retryT.C
				}
				// A deferred job can also die where it stands: watching its
				// context here retires a cancelled job immediately instead
				// of holding it hostage until some other job finishes.
				var ctxDone <-chan struct{}
				if ctx := deferred.spec.Ctx; ctx != nil {
					ctxDone = ctx.Done()
				}
				select {
				case <-p.quit:
					if retryT != nil {
						retryT.Stop()
					}
					p.shutdown(deferred)
					return
				case job := <-p.finished:
					p.reclaim(job)
				case <-ctxDone:
					p.retire(deferred, context.Cause(deferred.spec.Ctx))
					deferred = nil
				case <-retry:
				}
				if retryT != nil {
					retryT.Stop()
				}
				continue
			}
			deferred = nil
			continue
		}
		// Receive from the queue only while a shard slot is open; otherwise
		// jobs stay queued and Submit's backpressure stays honest.
		var queueCh chan *poolJob
		if p.running.Load() < int64(len(p.shards.parts)) {
			queueCh = p.queue
		}
		select {
		case <-p.quit:
			p.shutdown(nil)
			return
		case job := <-queueCh:
			// quit and queue can be ready together and select picks
			// arbitrarily; re-checking quit here makes Close deterministic —
			// a job picked up after quit closed is drained, never run.
			select {
			case <-p.quit:
				p.retire(job, ErrPoolClosed)
				p.shutdown(nil)
				return
			default:
			}
			if !p.tryStart(job) {
				deferred = job
			}
		case job := <-p.finished:
			p.reclaim(job)
		}
	}
}

// tryStart binds job to the lowest-numbered free shard, or retires it
// immediately if its context was cancelled while it waited. It reports
// false when no shard is free.
func (p *Pool) tryStart(job *poolJob) bool {
	if ctx := job.spec.Ctx; ctx != nil {
		if ctx.Err() != nil {
			// Cancelled while queued: never starts, costs the pool nothing.
			p.retire(job, context.Cause(ctx))
			return true
		}
	}
	if p.shardFI != nil && p.shardFI.StarveShard() {
		// Injected allocator starvation: the dispatcher behaves exactly as
		// if no shard could be formed and retries on its fault tick.
		return false
	}
	k := p.shards.grab()
	if k < 0 {
		return false
	}
	p.startJob(job, k)
	return true
}

// retire finishes a job that never ran (drained at shutdown, or cancelled
// while queued).
func (p *Pool) retire(job *poolJob, err error) {
	res := sched.Result{Engine: job.name, Program: job.spec.Prog.Name()}
	res.Stats.QueueWait = time.Since(job.submitted).Nanoseconds()
	job.finish(res, err)
	p.inflight.Add(-1)
	p.served.Add(1)
}

// reclaim frees a finished job's shard. The served counter already ticked
// in finishJob, before the job's handle resolved, so Served() never lags a
// Result() return.
func (p *Pool) reclaim(job *poolJob) {
	p.shards.release(job.part)
	p.busy.Add(-int64(len(job.shard)))
	p.running.Add(-1)
	p.inflight.Add(-1)
}

// shutdown drains the pool: the deferred job and every job still queued
// fail with ErrPoolClosed, running jobs finish and their shards are
// reclaimed. No new queue sends can begin once Close has set closed, so
// the drain loop terminates.
func (p *Pool) shutdown(deferred *poolJob) {
	if deferred != nil {
		p.retire(deferred, ErrPoolClosed)
	}
	for {
		select {
		case job := <-p.queue:
			p.retire(job, ErrPoolClosed)
			continue
		default:
		}
		if p.running.Load() == 0 {
			return
		}
		p.reclaim(<-p.finished)
	}
}

// startJob builds the job's shard-scoped runtime and wakes the shard's
// workers. The runtime's deque slice is exactly the shard's deques, so the
// thief loop's victim set — and with it the need_task/stolen_num
// starvation machinery living in those deques — is confined to the shard
// by construction.
func (p *Pool) startJob(job *poolJob, k int) {
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
	opt.Profile, opt.Tracer, opt.Faults = job.spec.Profile, job.spec.Tracer, job.spec.Faults
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
	job.release = sched.WatchContext(job.spec.Ctx, rt.stop)
	if d := job.spec.Deadline; d > 0 {
		job.deadline = time.AfterFunc(d, func() {
			rt.stop.Signal(fmt.Errorf("wsrt: job exceeded its %v run deadline: %w",
				d, context.DeadlineExceeded))
		})
	}
	job.rt = rt
	job.wg.Add(width)
	p.running.Add(1)
	p.busy.Add(int64(width))
	job.h.shard = shard
	job.h.startAt = job.started
	close(job.h.started)
	for li, gi := range shard {
		p.wake[gi] <- shardRun{job: job, local: li}
	}
	go p.finishJob(job)
}

// finishJob waits for the job's shard workers to hit the barrier,
// finalises the result, and hands the shard back to the dispatcher. The
// deque reset is confined to the finishing job's shard — neighbouring
// shards are live and must not be touched — and happens before the shard
// returns to the free set, so the next job bound to these workers starts
// from the same state a fresh deque would.
func (p *Pool) finishJob(job *poolJob) {
	job.wg.Wait()
	job.release()
	if job.deadline != nil {
		job.deadline.Stop()
	}
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
	if errors.Is(err, ErrJobPanicked) {
		// Panic quarantine: the job failed, its shard was reset above and
		// heals by being freed like any other.
		p.quarantined.Add(1)
	}
	job.h.endAt = time.Now()
	p.served.Add(1)
	job.finish(res, err)
	p.finished <- job
}

// workerLoop is one resident worker: park on the wake channel, run the
// job, hit the barrier, park again. This is the thief loop's "park between
// jobs instead of exiting".
func (p *Pool) workerLoop(i int) {
	defer p.joined.Done()
	w := p.workers[i]
	for run := range p.wake[i] {
		job := run.job
		w.bind(job.rt, run.local)
		w.runJob(true)
		w.rt = nil
		w.Start(nil, nil, nil) // drop the job's program, costs and stop flag
		// The workspace pool holds program-typed workspaces; the next job
		// bound to this worker may run a different program, and Clone
		// must never hand it a leftover (CopyFrom would panic on the
		// type mismatch). Frames are program-agnostic — their
		// free-list stays resident across jobs.
		w.DropWorkspacePool()
		job.wg.Done()
	}
}
