// Package serve is the resident job service: the layer between the
// long-lived scheduler pool (internal/wsrt.Pool) and the HTTP front end
// (cmd/adaptivetc-serve). It owns job identity and lifecycle (queued →
// running → done/failed/cancelled), multi-tenant QoS admission (priority
// classes under weighted-fair queueing, per-tenant quotas and rate
// limits), per-job cancellation and deadlines, service metrics
// (throughput, latency percentiles and histograms, per-tenant /
// per-priority / per-engine breakdowns, rejections), graceful drain, and
// — in check mode — a per-job trace recorder whose invariant verdict is
// folded into the metrics, so a serving deployment continuously audits
// the scheduler it runs on.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted, waiting for the pool.
	StateQueued State = "queued"
	// StateRunning: executing on the pool workers.
	StateRunning State = "running"
	// StateDone: completed with a value.
	StateDone State = "done"
	// StateFailed: aborted with an error (overflow, panic, pool shutdown).
	StateFailed State = "failed"
	// StateCancelled: cancelled by the submitter or its deadline.
	StateCancelled State = "cancelled"
	// StateForwarded: handed to a cluster peer; this node tracks the remote
	// outcome and the record settles here when the peer finishes it.
	StateForwarded State = "forwarded"
)

// Request describes one job submission.
type Request struct {
	// Program is a problems/registry name. Exactly one of Program and
	// ProgramHash must be set.
	Program string `json:"program"`
	// ProgramHash runs a DSL program previously registered via
	// POST /programs, by its content hash. Engine, steal-policy, priority,
	// tenant and timeout knobs apply exactly as for registry programs; N
	// and M override the program's "n" and "m" parameters when nonzero.
	ProgramHash string `json:"program_hash,omitempty"`
	// FirstSolution runs a ProgramHash job in first-solution mode (the
	// run stops at the first terminal witness). Registry programs carry
	// this property in the registry and ignore the field.
	FirstSolution bool `json:"first_solution,omitempty"`
	// N, M and Size are the registry size parameters (zero → family
	// default). M is the secondary knob of two-knob families (DAG width,
	// knapsack capacity, SAT clause count).
	N    int   `json:"n,omitempty"`
	M    int   `json:"m,omitempty"`
	Size int64 `json:"size,omitempty"`
	// Reverse mirrors a synthetic tree.
	Reverse bool `json:"reverse,omitempty"`
	// Engine is a pool-capable engine name: one of
	// adaptivetc.PoolEngineNames, which GET /catalog lists. Empty means
	// AdaptiveTC.
	Engine string `json:"engine,omitempty"`
	// Tenant identifies the submitter for quotas, rate limits and fair
	// sharing. Empty means DefaultTenant. The HTTP front end also accepts
	// it as an X-Tenant header.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the QoS class: "interactive", "batch" (the default) or
	// "background". Classes share the admission queue weighted-fair.
	Priority string `json:"priority,omitempty"`
	// TimeoutMS is the job deadline in milliseconds; zero means none.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// StealPolicy overrides the pool's victim-selection/steal-amount
	// strategy for this job ("random", "steal-half", "richest-first",
	// "shard-local"). Empty means the service-wide default
	// (Config.Options.StealPolicy, itself defaulting to "random").
	StealPolicy string `json:"steal_policy,omitempty"`
}

// Job is one submission's record.
type Job struct {
	ID      string
	Req     Request
	Created time.Time

	tenant string
	prio   Priority
	ts     *tenantState // the tenant's and the class's gauges and counters;
	cls    *groupStat   // nil on a record recovered terminal, which moves none

	cancel context.CancelCauseFunc
	done   chan struct{}

	origin   string // peer node that forwarded the job here, if any
	hops     int    // forwards behind the job so far; 0 for a local submission
	firstSol bool   // resolved first-solution mode (registry or request)

	mu         sync.Mutex
	state      State
	res        sched.Result
	err        error
	violations error  // invariant verdict from check mode, nil if clean
	remoteNode string // peer the job was forwarded to, if any
	remoteID   string // the job's id on that peer
}

// Done is closed when the job has reached a terminal state and its record
// (state, result, metrics, invariant verdict) is final.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's current state and, once terminal, its outcome.
func (j *Job) Snapshot() (State, sched.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.res, j.err
}

// Violations returns the invariant-checker verdict (check mode only; nil
// when clean, not checked, or not yet terminal).
func (j *Job) Violations() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.violations
}

// Cancel requests cooperative cancellation of the job.
func (j *Job) Cancel(cause error) { j.cancel(cause) }

// ErrCancelled is the cause recorded when a job is cancelled through the
// service (DELETE /jobs/{id}) rather than by its own deadline.
var ErrCancelled = errors.New("serve: job cancelled by request")

// Config configures a Service.
type Config struct {
	// Workers is the pool size; zero means 1.
	Workers int
	// QueueCapacity bounds the admission backlog — jobs accepted but not
	// yet running, across the weighted-fair queue and the pool staging
	// slot; zero means 64. A full backlog rejects with wsrt.ErrQueueFull
	// (HTTP 429).
	QueueCapacity int
	// MaxConcurrentJobs is the number of jobs the pool runs at once, each
	// on its own disjoint worker shard; zero or one means the single-job
	// pool. See wsrt.PoolConfig.
	MaxConcurrentJobs int
	// TenantDefaults bounds tenants that have no entry in Tenants. The
	// zero value is unlimited.
	TenantDefaults TenantLimits
	// Tenants overrides TenantDefaults per tenant name.
	Tenants map[string]TenantLimits
	// Options supplies pool-wide scheduling parameters (costs, deque
	// capacity, seed). Platform/Ctx/Tracer are per-job or pool-fixed and
	// ignored here.
	Options sched.Options
	// Check attaches a trace recorder to every job and verifies the
	// scheduler invariants on completion (the strict trace.Laws for
	// completed jobs, Truncated for cancelled/failed ones). Costs memory
	// and time per job; meant for smoke tests and canary deployments.
	Check bool
	// RetainJobs bounds how many terminal job records are kept for
	// GET /jobs/{id}; zero means 1024. Oldest terminal records are evicted
	// first; live jobs are never evicted.
	RetainJobs int
	// Faults, when non-nil, threads the fault plan through the service:
	// pool-level admission/shard faults plus per-job worker and deque
	// faults. Chaos soaks use it; production leaves it nil (free).
	Faults *faults.Plan
	// Journal, when non-nil, persists job submissions, state transitions,
	// results and DSL program registrations to the append-only store, so a
	// restart on the same directory recovers them. The service owns
	// appends; the caller owns Open/Close.
	Journal *jobstore.Store
	// Recovered is the state Journal's Open reconstructed; New materializes
	// it (terminal results served, never-started jobs re-queued, mid-run
	// jobs marked aborted-by-restart, DSL programs re-compiled) before the
	// admission pump starts.
	Recovered *jobstore.Recovery
	// ProgramCache bounds the DSL compile cache (POST /programs). Zero
	// values take the progstore defaults.
	ProgramCache progstore.Config
}

// Service is the resident job service.
type Service struct {
	cfg  Config // defaults resolved by New
	pool *wsrt.Pool

	started time.Time
	nextID  atomic.Int64

	q    *wfq
	quit chan struct{} // closed by Close
	idle chan struct{} // capacity 1; a token says inflight reached zero (Drain)

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // terminal job ids in completion order, for eviction

	closed   atomic.Bool // set under mu, so admit's check-and-register is ordered against Close
	draining atomic.Bool
	waiting  atomic.Int64 // accepted, not yet running (WFQ + staged)
	inflight atomic.Int64 // accepted, not yet terminal

	retried    atomic.Int64
	checked    atomic.Int64
	violations atomic.Int64
	idleParks  atomic.Int64 // Σ Stats.Parks over finished jobs
	idleWakes  atomic.Int64 // Σ Stats.Wakes over finished jobs
	latencies  *latencyRing
	hist       *histogram
	longPoll   longPollStats

	programs *progstore.Store // DSL compile cache (programs-as-data)
	journal  *jobstore.Store  // nil when not persisting

	recoveredTerminal atomic.Int64 // jobs restored with their journaled result
	recoveredRequeued atomic.Int64 // jobs re-queued because they never started
	recoveredAborted  atomic.Int64 // mid-run jobs marked aborted-by-restart
	recoveredPrograms atomic.Int64 // DSL programs re-compiled from the journal

	forwarder    atomic.Value // forwarderBox: cluster forward-on-full hook
	forwardedOut atomic.Int64 // jobs this node placed on peers
	forwardedIn  atomic.Int64 // jobs accepted from peers
	forwardRej   atomic.Int64 // peer submissions refused for capacity
	forwardedNow atomic.Int64 // gauge: forwarded, peer outcome pending

	tenantsMu sync.Mutex
	tenants   map[string]*tenantState
	classes   map[Priority]*groupStat // fixed key set, built in New
	enginesMu sync.Mutex
	engines   map[string]*groupStat

	wg sync.WaitGroup // pump + job watcher goroutines
}

// New builds the service and starts its pool and admission pump.
func New(cfg Config) *Service {
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	s := &Service{
		cfg: cfg,
		pool: wsrt.NewPool(wsrt.PoolConfig{
			Workers: cfg.Workers,
			// One staging slot: every job that is not literally next waits
			// in the weighted-fair queue, where priority still matters.
			QueueCapacity:     1,
			MaxConcurrentJobs: cfg.MaxConcurrentJobs,
			Options:           cfg.Options,
			Faults:            cfg.Faults,
		}),
		started:   time.Now(),
		q:         newWFQ(),
		quit:      make(chan struct{}),
		idle:      make(chan struct{}, 1),
		jobs:      make(map[string]*Job),
		latencies: newLatencyRing(4096),
		hist:      newHistogram(),
		tenants:   make(map[string]*tenantState),
		classes:   make(map[Priority]*groupStat, len(priorityOrder)),
		engines:   make(map[string]*groupStat),
	}
	for _, p := range priorityOrder {
		s.classes[p] = newGroupStat()
	}
	s.programs = progstore.New(cfg.ProgramCache)
	s.journal = cfg.Journal
	// Materialize recovered journal state before the pump starts, so
	// re-queued jobs are first in line and terminal records answer GETs
	// from the first request on.
	s.recover(cfg.Recovered)
	s.wg.Add(1)
	go s.pump()
	return s
}

// lookupEngine resolves an engine name to a row of the engine table that a
// resident pool can host. Tascell and the serial reference resolve but are
// not pool-capable: their runtimes are not built on the wsrt pool (Tascell's
// workers own their victims' stacks; serial has no workers). A variable so
// that a test can put an instrumented engine in front of the table.
var lookupEngine = func(name string) (wsrt.PoolEngine, bool) {
	e, _ := adaptivetc.EngineByName(name)
	pe, ok := e.(wsrt.PoolEngine)
	return pe, ok
}

// tenant returns (creating if needed) the named tenant's state.
func (s *Service) tenant(name string) *tenantState {
	s.tenantsMu.Lock()
	defer s.tenantsMu.Unlock()
	ts := s.tenants[name]
	if ts == nil {
		lim := s.cfg.TenantDefaults
		if o, ok := s.cfg.Tenants[name]; ok {
			lim = o
		}
		ts = newTenantState(lim)
		s.tenants[name] = ts
	}
	return ts
}

// engineName resolves the request's engine: empty means defaultEngine.
func (r Request) engineName() string {
	if r.Engine == "" {
		return defaultEngine
	}
	return r.Engine
}

var defaultEngine = adaptivetc.NewAdaptiveTC().Name()

// buildJob validates req, builds its program and engine, and constructs
// the job record, its cancellation context and its admission item. The
// record is in no lifecycle state yet; admit gives it one.
func (s *Service) buildJob(req Request) (*admItem, error) {
	var prog sched.Program
	var firstSol bool
	switch {
	case req.Program != "" && req.ProgramHash != "":
		return nil, fmt.Errorf("serve: request sets both program %q and program_hash %q; use one", req.Program, req.ProgramHash)
	case req.ProgramHash != "":
		// A cached DSL program, addressed by content hash. N and M map to
		// the conventional "n" and "m" parameters; overriding a parameter
		// the program does not declare is an error, like any bad request.
		var err error
		prog, err = s.programs.Program(req.ProgramHash, dslOverrides(req))
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		firstSol = req.FirstSolution
	default:
		var err error
		prog, err = registry.Build(req.Program, registry.Params{N: req.N, M: req.M, Size: req.Size, Reverse: req.Reverse})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		firstSol = registry.FirstSolution(req.Program)
	}
	engine, ok := lookupEngine(req.engineName())
	if !ok {
		return nil, fmt.Errorf("serve: engine %q is not pool-capable (have %v)", req.engineName(), adaptivetc.PoolEngineNames())
	}
	if !wsrt.ValidStealPolicy(req.StealPolicy) {
		return nil, fmt.Errorf("serve: unknown steal policy %q (have %v)", req.StealPolicy, wsrt.StealPolicyNames())
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		return nil, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	if req.TimeoutMS > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, time.Duration(req.TimeoutMS)*time.Millisecond,
			fmt.Errorf("serve: job exceeded its %dms deadline: %w", req.TimeoutMS, context.DeadlineExceeded))
		// Chain the timer's release into the job cancel func; finalize
		// calls it when the job ends, whatever the outcome.
		orig := cancel
		cancel = func(cause error) { orig(cause); cancelTimeout() }
	}

	job := &Job{
		ID:       "j" + strconv.FormatInt(s.nextID.Add(1), 10),
		Req:      req,
		Created:  time.Now(),
		tenant:   tenant,
		prio:     prio,
		ts:       s.tenant(tenant),
		cls:      s.classes[prio],
		firstSol: firstSol,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	var rec *trace.Recorder
	if s.cfg.Check {
		rec = trace.NewRecorder()
	}
	return &admItem{
		job: job,
		spec: wsrt.JobSpec{
			Prog:          prog,
			Engine:        engine,
			Ctx:           ctx,
			Tracer:        rec,
			Faults:        s.cfg.Faults,
			StealPolicy:   req.StealPolicy,
			FirstSolution: firstSol,
		},
	}, nil
}

// dslOverrides maps the request's registry-shaped size knobs onto DSL
// parameter overrides: N → "n", M → "m", zero meaning "program default".
func dslOverrides(req Request) map[string]int64 {
	var ov map[string]int64
	if req.N > 0 {
		ov = map[string]int64{"n": int64(req.N)}
	}
	if req.M > 0 {
		if ov == nil {
			ov = map[string]int64{}
		}
		ov["m"] = int64(req.M)
	}
	return ov
}

// Submit validates req, builds its program, runs the tenant's admission
// checks, and enqueues the job on the weighted-fair queue. Rejections:
// *RejectionError for a tenant rate limit or quota (HTTP 429 with a
// per-tenant Retry-After), wsrt.ErrQueueFull for a full backlog (HTTP
// 429), ErrDraining during drain (HTTP 503), wsrt.ErrPoolClosed after
// Close. In cluster mode a full backlog first tries the installed
// forwarder (see SetForwarder); only if no peer takes the job does the
// client see the 429 — counted once, here, with this node's Retry-After.
func (s *Service) Submit(req Request) (*Job, error) {
	return s.admit(req, entry{from: fromClient})
}

// source is who vouches for a job on its way into the queue; it decides
// which admission checks admit runs and which counters it moves.
type source int

const (
	fromClient  source = iota // Submit: a client's own submission
	fromPeer                  // SubmitForwarded: charged to its tenant at the originating node
	fromJournal               // recovery: admitted, counted and journaled before the restart
)

// entry is everything that differs between the three ways into the queue.
type entry struct {
	from   source
	id     string // fromJournal: the journaled id, kept in place of a minted one
	origin string // fromPeer: the node that forwarded the job
	hops   int    // fromPeer: forwards behind the job, this one included
}

// admit is the one way into the weighted-fair queue: build the job, run
// the checks its source calls for, register the record, give it its first
// lifecycle state, count it, journal it, queue it.
func (s *Service) admit(req Request, e entry) (*Job, error) {
	it, err := s.buildJob(req)
	if err != nil {
		return nil, err
	}
	job := it.job
	job.origin, job.hops = e.origin, e.hops
	if e.from == fromJournal {
		job.ID = e.id
	}

	// The checks and the enqueue are one critical section, so the capacity
	// and quota bounds cannot be overshot by concurrent submits.
	s.mu.Lock()
	if err := s.refusal(job, e.from); err != nil {
		s.mu.Unlock()
		if e.from == fromClient && errors.Is(err, wsrt.ErrQueueFull) {
			// Outside the lock: the forwarder does network I/O.
			return s.forwardOrReject(it)
		}
		job.cancel(err)
		return nil, err
	}
	s.jobs[job.ID] = job
	s.transition(job, StateQueued, nil)
	s.mu.Unlock()

	if e.from != fromJournal {
		job.ts.submitted.Add(1)
		job.cls.submitted.Add(1)
		s.journalSubmit(job)
	}
	if e.from == fromPeer {
		s.forwardedIn.Add(1)
	}
	s.q.push(it)
	return job, nil
}

// refusal runs the admission checks from calls for and reports why the job
// may not enter the queue, nil if it may. The caller holds s.mu.
func (s *Service) refusal(job *Job, from source) error {
	ts := job.ts
	switch {
	case from == fromJournal:
		// The submission was acknowledged before the restart; turning it
		// away now would make it a silent loss.
		return nil
	case s.closed.Load():
		return wsrt.ErrPoolClosed
	case s.draining.Load():
		return ErrDraining
	}
	if from == fromClient {
		// Quota before the bucket: an over-quota submission must not also
		// burn a rate token.
		if q := ts.limits.MaxInFlight; q > 0 && ts.inflight.Load() >= int64(q) {
			ts.quotaRejected.Add(1)
			return &RejectionError{Tenant: job.tenant, Reason: "quota", RetryAfter: time.Second}
		}
		if ok, retryAfter := ts.bucket.take(time.Now()); !ok {
			ts.rateLimited.Add(1)
			return &RejectionError{Tenant: job.tenant, Reason: "rate-limit", RetryAfter: retryAfter}
		}
	}
	if s.waiting.Load() >= int64(s.cfg.QueueCapacity) {
		if from == fromPeer {
			// Not the client-visible rejected: the origin owns the 429.
			s.forwardRej.Add(1)
		}
		return wsrt.ErrQueueFull
	}
	return nil
}

// phase orders the live states; every state not listed here is terminal,
// the last phase. A job only ever moves to a later phase, and that one rule
// settles the race between the pump marking a start and the watcher
// finalizing the same job: whichever comes second finds nothing to do.
var phase = map[State]int{
	"":           -3, // built, not yet admitted
	StateQueued:  -2,
	StateRunning: -1, StateForwarded: -1, // placed on an executor, here or on a peer
}

const terminal = 0

// transition is the job's one lifecycle step, and with count the only code
// that moves a lifecycle gauge. Under job.mu it replaces the state with
// next — running set for the fields that must change with it — unless the
// job is already that far along, and counts the job into what next holds,
// then out of what the displaced state held (in that order, so in_flight
// never reads zero in between). It reports whether the job moved.
func (s *Service) transition(job *Job, next State, set func()) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	prev := job.state
	if phase[next] <= phase[prev] {
		return false
	}
	job.state = next
	if set != nil {
		set()
	}
	s.count(job, next, 1)
	s.count(job, prev, -1)
	return true
}

// count is the lifecycle table: the gauges a job in state st is counted
// in, moved by d. A job not yet admitted, or terminal, is counted in none.
func (s *Service) count(job *Job, st State, d int64) {
	switch st {
	case StateQueued:
		s.waiting.Add(d)
		job.ts.queued.Add(d)
		job.cls.queued.Add(d)
	case StateRunning:
		job.ts.running.Add(d)
		job.cls.running.Add(d)
	case StateForwarded:
		s.forwardedNow.Add(d)
	default:
		return
	}
	job.ts.inflight.Add(d)
	s.inflight.Add(d)
}

// Get returns the job record for id.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels the job with the given id.
func (s *Service) Cancel(id string) (*Job, bool) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	j.Cancel(ErrCancelled)
	return j, true
}

// stagingRetryPause is how long the pump waits before it offers a job to
// the pool again after an injected admission fault refused it.
const stagingRetryPause = time.Millisecond

// pump is the admission pump: the single consumer of the weighted-fair
// queue. It stages one job into the pool's one-slot queue, then waits for
// that job to leave the slot — started, or settled without starting
// (cancelled where it stood, drained by Close) — before it pops the next.
// The pool announces both on the job's handle, so the pump never finds the
// slot full, and every job that is not literally next stays in the queue
// where a later, more important arrival can still overtake it.
func (s *Service) pump() {
	defer s.wg.Done()
	for {
		it, ok := s.q.pop()
		if !ok {
			return
		}
		if ctx := it.spec.Ctx; ctx != nil && ctx.Err() != nil {
			// Cancelled while queued: never reaches the pool.
			s.retireQueued(it, context.Cause(ctx))
			continue
		}
		if s.closed.Load() {
			s.retireQueued(it, wsrt.ErrPoolClosed)
			continue
		}
		h, err := s.pool.Submit(it.spec)
		switch {
		case err == nil:
			// The pump holds its own wg slot while adding the watcher's, so
			// the counter cannot be at zero concurrently with Close's Wait.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				res, err := h.Result()
				s.finalize(it.job, it.spec.Tracer, res, err)
			}()
			select {
			case <-h.Started():
				if s.transition(it.job, StateRunning, nil) {
					s.journalStart(it.job)
				}
			case <-h.Done():
			}
		case errors.Is(err, wsrt.ErrQueueFull):
			// Only fault injection (faults.Spec.Reject) gets here. Not a
			// rejection — the job was accepted at Submit — so it goes back
			// to the head of its queue and is offered again after a pause.
			s.q.pushFront(it)
			s.retried.Add(1)
			select {
			case <-time.After(stagingRetryPause):
			case <-s.quit:
			}
		default:
			s.retireQueued(it, err)
		}
	}
}

// retireQueued finishes a job that never reached the pool (cancelled in
// the queue, service closed, or the pool refused it terminally).
func (s *Service) retireQueued(it *admItem, err error) {
	res := sched.Result{Engine: it.spec.Engine.Name(), Program: it.job.Req.Program}
	res.Stats.QueueWait = time.Since(it.job.Created).Nanoseconds()
	s.finalize(it.job, it.spec.Tracer, res, err)
}

// engine returns (creating if needed) the per-engine breakdown stats.
func (s *Service) engine(name string) *groupStat {
	s.enginesMu.Lock()
	defer s.enginesMu.Unlock()
	g := s.engines[name]
	if g == nil {
		g = newGroupStat()
		s.engines[name] = g
	}
	return g
}

// finalize settles one job: classify the outcome, fold it into the
// per-tenant/priority/engine metrics, run the invariant checker in check
// mode, journal and then publish the terminal record (the terminal
// transition releases the job's admission footprint). Every job passes
// through here exactly once, whether it ran on the pool, on a peer, or
// died in the queue.
func (s *Service) finalize(job *Job, rec *trace.Recorder, res sched.Result, err error) {
	job.cancel(nil) // release the context watcher and any deadline timer

	ts, cls := job.ts, job.cls
	eng := s.engine(job.Req.engineName())
	s.idleParks.Add(res.Stats.Parks)
	s.idleWakes.Add(res.Stats.Wakes)

	state := StateDone
	switch {
	case err == nil:
		ts.completed.Add(1)
		cls.completed.Add(1)
		eng.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrCancelled):
		state = StateCancelled
		ts.cancelled.Add(1)
		cls.cancelled.Add(1)
	default:
		state = StateFailed
		ts.failed.Add(1)
		cls.failed.Add(1)
	}
	// Latency accounting by outcome. Completed jobs record the full
	// submit-to-done latency — queue wait is part of what their clients
	// experienced. Aborted or failed jobs record only the time they actually
	// held workers: a job cancelled after sitting in the queue for a second
	// did one second of *waiting*, not one second of *serving*, and letting
	// that wait into the ring would inflate p99 every time load shedding
	// kicks in — precisely when honest latency numbers matter most. Jobs
	// that never started (cancelled while queued, drained by Close) held no
	// workers and contribute nothing.
	var sample int64 = -1
	switch {
	case err == nil:
		sample = time.Since(job.Created).Nanoseconds()
	case res.Makespan > 0:
		sample = res.Makespan
	}
	if sample >= 0 {
		s.latencies.add(sample)
		s.hist.observe(sample)
		ts.lat.add(sample)
		cls.lat.add(sample)
		eng.lat.add(sample)
	}

	var viol error
	if rec != nil {
		// No external oracle at serve time: the run's value stands in for
		// it, so this checks internal consistency (conservation, deposit
		// accounting, completion uniqueness), not correctness against a
		// serial run. Aborted jobs — and completed first-solution jobs,
		// whose losing workers are cancelled mid-tree by design — are
		// audited under the truncation laws instead.
		laws := trace.Laws{Final: res.Value, Want: res.Value, Truncated: state != StateDone || job.firstSol}
		if s.cfg.Options.RelaxedDeque {
			// Bounded multiplicity: the lock-reduced owner path is allowed
			// (by construction, never observed) to hand an entry to up to
			// 2 consumers, so the strict exactly-once ceilings would
			// mislabel it.
			laws.K = 2
		}
		viol = rec.CheckLaws(laws)
		s.checked.Add(1)
		if viol != nil {
			s.violations.Add(1)
		}
		rec.Release()
	}
	// A completed first-solution job's value is a solution witness; when the
	// family can verify witnesses, a bogus one counts as a violation whether
	// or not trace checking is on. Zero is unverifiable (legitimately "no
	// solution exists") and passes. DSL programs have no registry oracle,
	// so only registry jobs are witness-checked.
	if state == StateDone && job.Req.Program != "" {
		p := registry.Params{N: job.Req.N, M: job.Req.M, Size: job.Req.Size, Reverse: job.Req.Reverse}
		if ok, checkable := registry.VerifyWitness(job.Req.Program, p, res.Value); checkable && !ok {
			werr := fmt.Errorf("serve: job %s returned invalid witness %d for %q", job.ID, res.Value, job.Req.Program)
			if viol == nil {
				s.violations.Add(1)
			}
			viol = errors.Join(viol, werr)
		}
	}

	// Durability before visibility: the terminal record is fsynced before
	// the state is published, so a poller that observes "done" can trust
	// the result to survive a crash.
	s.journalDone(job, state, res, err)

	s.transition(job, state, func() { job.res, job.err, job.violations = res, err, viol })
	s.retire(job)
	close(job.done)
	if s.inflight.Load() == 0 {
		s.wakeDrain()
	}
}

// retire keeps a terminal job's record for GET /jobs/{id} and evicts the
// oldest terminal records beyond the retention bound.
func (s *Service) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.ID] = job // already there unless recovery is installing the record
	s.order = append(s.order, job.ID)
	for len(s.order) > s.cfg.RetainJobs {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.jobs, evict)
	}
}

// Ready reports whether the service accepts new jobs: true until Drain or
// Close begins. GET /readyz renders it.
func (s *Service) Ready() bool {
	return !s.draining.Load() && !s.closed.Load()
}

// Drain gracefully winds the service down: new submissions are rejected
// with ErrDraining (and /readyz flips not-ready) while queued and running
// jobs finish. It returns nil once every accepted job has settled, or the
// context's error if that expires first; either way the service stays
// drained — the expected follow-up is Close.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.idle:
		}
	}
	s.wakeDrain() // pass the token on: another Drain may wait for the same zero
	return nil
}

// wakeDrain leaves the token that says in_flight reached zero. A token
// already there serves as well: Drain re-reads the gauge when it gets one.
func (s *Service) wakeDrain() {
	select {
	case s.idle <- struct{}{}:
	default:
	}
}

// Snapshot returns the current service metrics.
func (s *Service) Snapshot() Metrics {
	up := time.Since(s.started)
	p50, p99 := s.latencies.percentiles()
	m := Metrics{
		Started:             s.started,
		UptimeSeconds:       up.Seconds(),
		Draining:            s.draining.Load(),
		Workers:             s.pool.Workers(),
		MaxConcurrentJobs:   s.pool.MaxConcurrentJobs(),
		RunningJobs:         s.pool.RunningJobs(),
		BusyWorkers:         s.pool.BusyWorkers(),
		QueueCapacity:       s.cfg.QueueCapacity,
		QueueDepth:          int(s.waiting.Load()),
		ExternalQueueDepth:  s.q.depth(),
		InFlight:            s.inflight.Load(),
		ForwardedOut:        s.forwardedOut.Load(),
		ForwardedIn:         s.forwardedIn.Load(),
		ForwardRejected:     s.forwardRej.Load(),
		ForwardedNow:        s.forwardedNow.Load(),
		AdmissionRetries:    s.retried.Load(),
		QuarantinedJobs:     s.pool.Quarantined(),
		IdleParks:           s.idleParks.Load(),
		IdleWakes:           s.idleWakes.Load(),
		P50LatencyMS:        float64(p50) / 1e6,
		P99LatencyMS:        float64(p99) / 1e6,
		InvariantChecked:    s.checked.Load(),
		InvariantViolations: s.violations.Load(),
		LongPollWaiting:     s.longPoll.waiting.Load(),
		LongPolls:           s.longPoll.total.Load(),
		LongPollTimeouts:    s.longPoll.timeouts.Load(),
		LatencyHistogram:    s.hist.snapshot(),
	}
	ps := s.programs.Snapshot()
	m.ProgramsCached = ps.Cached
	m.ProgramCacheBytes = ps.Bytes
	m.CompileHits = ps.Hits
	m.CompileMisses = ps.Misses
	m.CompileErrHits = ps.ErrHits
	m.ProgramEvictions = ps.Evictions
	if s.journal != nil {
		m.StoreFsyncs = s.journal.Fsyncs()
		m.StoreRecords = s.journal.Records()
		m.Recovery = &RecoveryStats{
			Terminal: s.recoveredTerminal.Load(),
			Requeued: s.recoveredRequeued.Load(),
			Aborted:  s.recoveredAborted.Load(),
			Programs: s.recoveredPrograms.Load(),
		}
	}
	if m.Workers > 0 {
		m.WorkerOccupancy = float64(m.BusyWorkers) / float64(m.Workers)
	}
	m.LoadScore = m.QueueDepth + int(m.BusyWorkers)
	for _, shard := range s.pool.LiveShards() {
		m.Shards = append(m.Shards, ShardMetrics{
			Workers:   shard,
			Width:     len(shard),
			Occupancy: float64(len(shard)) / float64(m.Workers),
		})
	}
	s.tenantsMu.Lock()
	if len(s.tenants) > 0 {
		m.Tenants = make(map[string]GroupMetrics, len(s.tenants))
		for name, ts := range s.tenants {
			g := ts.snapshot()
			m.Tenants[name] = g
			// Every rejection is charged to exactly one tenant.
			m.Rejected += g.Rejected
			m.RateLimited += g.RateLimited
			m.QuotaRejected += g.QuotaRejected
		}
	}
	s.tenantsMu.Unlock()
	m.Priorities = make(map[string]GroupMetrics, len(priorityOrder))
	for _, p := range priorityOrder {
		g := s.classes[p].snapshot()
		m.Priorities[string(p)] = g
		// Every job is in exactly one class, so the service-wide outcome
		// counts are the class sums.
		m.Submitted += g.Submitted
		m.Completed += g.Completed
		m.Failed += g.Failed
		m.Cancelled += g.Cancelled
	}
	if up > 0 {
		m.ThroughputPerSecond = float64(m.Completed) / up.Seconds()
	}
	s.enginesMu.Lock()
	if len(s.engines) > 0 {
		m.Engines = make(map[string]GroupMetrics, len(s.engines))
		for name, g := range s.engines {
			m.Engines[name] = g.snapshot()
		}
	}
	s.enginesMu.Unlock()
	return m
}

// Close shuts the service down: queued jobs are retired with
// wsrt.ErrPoolClosed, in-flight work finishes or is drained by the pool,
// every watcher completes, and further submissions fail. For a graceful
// shutdown that finishes the backlog instead of failing it, call Drain first.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed.Swap(true)
	s.mu.Unlock()
	if already {
		return
	}
	close(s.quit)
	s.q.close() // the pump drains the backlog, retiring every queued job
	s.pool.Close()
	s.wg.Wait()
}
