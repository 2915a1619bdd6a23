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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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
	// Engine is a pool-capable engine name ("adaptivetc", "cilk",
	// "cilk-synched", "cutoff-programmer", "cutoff-library", "helpfirst",
	// "slaw"). Empty means "adaptivetc".
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

	cancel context.CancelCauseFunc
	handle *wsrt.JobHandle // set by the pump once the pool accepts the job
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

// Tenant returns the tenant the job was attributed to.
func (j *Job) Tenant() string { return j.tenant }

// Priority returns the job's QoS class.
func (j *Job) Priority() Priority { return j.prio }

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
	// ShardPolicy sizes shards: "static" (equal-width, the default),
	// "adaptive" (grow when idle, split when jobs are waiting), or "slo"
	// (adaptive, but collapse to the widest shard while the interactive
	// class's live p99 exceeds SLOTargetMS).
	ShardPolicy string
	// SLOTargetMS is the interactive-class p99 target driving the "slo"
	// shard policy; zero means 50ms. Ignored by the other policies.
	SLOTargetMS float64
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
	// AdmissionBackoff is the pump's initial sleep when the pool's staging
	// queue is full (or fault injection pretends it is), doubling per
	// consecutive refusal up to a 100ms cap. Zero means 500µs. The pump
	// retries until the job is cancelled or the service closes — a full
	// staging slot is flow control, not rejection; rejection happens at
	// the QueueCapacity bound in Submit.
	AdmissionBackoff time.Duration
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
	cfg      Config
	pool     *wsrt.Pool
	capacity int

	started time.Time
	nextID  atomic.Int64

	q    *wfq
	quit chan struct{} // closed by Close; wakes the pump's backoff sleep
	wake chan struct{} // capacity 1; nudges the pump when pool space frees

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // terminal job ids in completion order, for eviction
	closed bool

	draining atomic.Bool
	waiting  atomic.Int64 // accepted, not yet running (WFQ + staged)
	inflight atomic.Int64 // accepted, not yet terminal

	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	rejected    atomic.Int64
	rateLimited atomic.Int64
	quotaRej    atomic.Int64
	retried     atomic.Int64
	checked     atomic.Int64
	violations  atomic.Int64
	idleParks   atomic.Int64 // Σ Stats.Parks over finished jobs
	idleWakes   atomic.Int64 // Σ Stats.Wakes over finished jobs
	latencies   *latencyRing
	hist        *histogram
	longPoll    longPollStats

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

	wg sync.WaitGroup // pump + job watcher goroutines (start markers included)
}

// New builds the service and starts its pool and admission pump.
func New(cfg Config) *Service {
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	capacity := cfg.QueueCapacity
	if capacity <= 0 {
		capacity = 64
	}
	s := &Service{
		cfg:      cfg,
		capacity: capacity,
		pool: wsrt.NewPool(wsrt.PoolConfig{
			Workers: cfg.Workers,
			// One staging slot: every job that is not literally next waits
			// in the weighted-fair queue, where priority still matters.
			QueueCapacity:     1,
			MaxConcurrentJobs: cfg.MaxConcurrentJobs,
			ShardPolicy:       wsrt.ShardPolicy(cfg.ShardPolicy),
			Options:           cfg.Options,
			Faults:            cfg.Faults,
		}),
		started:   time.Now(),
		q:         newWFQ(),
		quit:      make(chan struct{}),
		wake:      make(chan struct{}, 1),
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
	// The demand the pool's adaptive/SLO shard policies see must include
	// the backlog held here, since only one job at a time is staged into
	// the pool's own queue.
	s.pool.SetExternalQueueDepth(func() int { return int(s.waiting.Load()) })
	s.pool.SetShardAdvisor(s.adviseShard)
	// Materialize recovered journal state before the pump starts, so
	// re-queued jobs are first in line and terminal records answer GETs
	// from the first request on.
	s.recover(cfg.Recovered)
	s.wg.Add(1)
	go s.pump()
	return s
}

// Pool exposes the underlying pool (tests).
func (s *Service) Pool() *wsrt.Pool { return s.pool }

// adviseShard is the "slo" shard policy: while the interactive class's
// live p99 exceeds the target, collapse to one claim — the widest shard
// the allocator can form, draining each job fastest — and otherwise fall
// back to the adaptive split (one claim per waiting job).
func (s *Service) adviseShard(waiting, slots, free int) int {
	target := s.cfg.SLOTargetMS
	if target <= 0 {
		target = 50
	}
	_, p99 := s.classes[PriorityInteractive].lat.percentiles()
	if float64(p99)/1e6 > target {
		return 1
	}
	return waiting + 1
}

// resolveEngine maps an engine name to its pool-capable implementation.
// Tascell and the serial reference are deliberately absent: their runtimes
// are not built on the wsrt pool (Tascell's workers own their victims'
// stacks; serial has no workers), so a resident pool cannot host them.
var poolEngines = map[string]func() wsrt.PoolEngine{}

// RegisterEngine adds a pool-capable engine constructor under name. The
// seven wsrt engines register themselves via internal/serve/engines.go;
// the hook is exported for tests injecting instrumented engines.
func RegisterEngine(name string, mk func() wsrt.PoolEngine) { poolEngines[name] = mk }

// EngineNames lists the registered pool-capable engine names, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(poolEngines))
	for n := range poolEngines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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

// buildJob validates req, builds its program and engine, and constructs
// the job record, its cancellation context and its admission item —
// everything Submit and SubmitForwarded share before their admission
// checks diverge.
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
	engName := req.Engine
	if engName == "" {
		engName = "adaptivetc"
	}
	mk, ok := poolEngines[engName]
	if !ok {
		return nil, fmt.Errorf("serve: engine %q is not pool-capable (have %v)", engName, EngineNames())
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
		firstSol: firstSol,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
	var rec *trace.Recorder
	if s.cfg.Check {
		rec = trace.NewRecorder()
	}
	return &admItem{
		job: job,
		spec: wsrt.JobSpec{
			Prog:          prog,
			Engine:        mk(),
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
	it, err := s.buildJob(req)
	if err != nil {
		return nil, err
	}
	job := it.job
	ts := s.tenant(job.tenant)
	cls := s.classes[job.prio]

	// Admission checks and the enqueue are one critical section, so the
	// capacity and quota bounds cannot be overshot by concurrent submits.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		job.cancel(wsrt.ErrPoolClosed)
		return nil, wsrt.ErrPoolClosed
	}
	if s.draining.Load() {
		s.mu.Unlock()
		job.cancel(ErrDraining)
		return nil, ErrDraining
	}
	if q := ts.limits.MaxInFlight; q > 0 && ts.inflight.Load() >= int64(q) {
		s.mu.Unlock()
		rej := &RejectionError{Tenant: job.tenant, Reason: "quota", RetryAfter: time.Second}
		s.quotaRej.Add(1)
		ts.quotaRejected.Add(1)
		job.cancel(rej)
		return nil, rej
	}
	if ok, retryAfter := ts.bucket.take(time.Now()); !ok {
		s.mu.Unlock()
		rej := &RejectionError{Tenant: job.tenant, Reason: "rate-limit", RetryAfter: retryAfter}
		s.rateLimited.Add(1)
		ts.rateLimited.Add(1)
		job.cancel(rej)
		return nil, rej
	}
	if s.waiting.Load() >= int64(s.capacity) {
		s.mu.Unlock()
		// Outside the lock: the forwarder does network I/O.
		return s.forwardOrReject(it, ts, cls)
	}
	s.jobs[job.ID] = job
	s.waiting.Add(1)
	s.inflight.Add(1)
	ts.inflight.Add(1)
	ts.queued.Add(1)
	cls.queued.Add(1)
	s.mu.Unlock()

	s.submitted.Add(1)
	ts.submitted.Add(1)
	cls.submitted.Add(1)
	s.journalSubmit(job)
	s.q.push(it)
	return job, nil
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

// pump is the admission pump: the single consumer of the weighted-fair
// queue. It stages jobs into the pool one at a time; a full staging slot
// puts the job back at the head of its tenant queue and backs off, so a
// higher-priority arrival can overtake while the pump waits.
func (s *Service) pump() {
	defer s.wg.Done()
	attempt := 0
	for {
		it, ok := s.q.pop()
		if !ok {
			return
		}
		job := it.job
		if ctx := it.spec.Ctx; ctx != nil && ctx.Err() != nil {
			// Cancelled while queued: never reaches the pool.
			s.retireQueued(it, context.Cause(ctx))
			attempt = 0
			continue
		}
		if s.isClosed() {
			s.retireQueued(it, wsrt.ErrPoolClosed)
			continue
		}
		h, err := s.pool.Submit(it.spec)
		switch {
		case err == nil:
			attempt = 0
			job.handle = h
			// Two slots: the watcher and its start marker. The pump holds
			// its own slot while adding, so the counter cannot be at zero
			// concurrently with Close's Wait.
			s.wg.Add(2)
			go s.watch(it)
		case errors.Is(err, wsrt.ErrQueueFull):
			// The staging slot is taken (or fault injection says so). Not a
			// rejection — the job was accepted at Submit — so park it back
			// at the head of its queue and wait for space.
			s.q.pushFront(it)
			s.retried.Add(1)
			s.sleepOrWake(admissionBackoff(s.cfg.AdmissionBackoff, attempt))
			attempt++
		default:
			s.retireQueued(it, err)
			attempt = 0
		}
	}
}

// sleepOrWake sleeps for d unless a finishing job (wake) or shutdown
// (quit) interrupts.
func (s *Service) sleepOrWake(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.wake:
	case <-s.quit:
	}
}

// wakePump nudges the pump out of its backoff sleep (non-blocking).
func (s *Service) wakePump() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// retireQueued finishes a job that never reached the pool (cancelled in
// the queue, service closed, or the pool refused it terminally).
func (s *Service) retireQueued(it *admItem, err error) {
	res := sched.Result{Engine: it.spec.Engine.Name(), Program: it.job.Req.Program}
	res.Stats.QueueWait = time.Since(it.job.Created).Nanoseconds()
	s.finalize(it.job, it.spec.Tracer, res, err)
}

// watch follows one pool-accepted job to its terminal state. The start
// marker moves the job queued → running as soon as the pool picks it up;
// it is wg-tracked like the watcher itself (its slot pre-added by the
// pump), so Close cannot return while either still runs.
func (s *Service) watch(it *admItem) {
	defer s.wg.Done()
	job := it.job
	go func() {
		defer s.wg.Done()
		// Started is closed by the pool on job start; a job drained by
		// Close never starts but does finish, which releases this marker.
		select {
		case <-job.handle.Started():
			s.markRunning(job)
		case <-job.handle.Done():
		}
	}()
	res, err := job.handle.Result()
	s.finalize(job, it.spec.Tracer, res, err)
}

// markRunning transitions a job queued → running and moves the gauges
// with it. The job's state mutex orders it against finalize: whichever
// runs first wins, and the loser sees the state it left behind.
func (s *Service) markRunning(job *Job) {
	job.mu.Lock()
	moved := job.state == StateQueued
	if moved {
		job.state = StateRunning
	}
	job.mu.Unlock()
	if !moved {
		return
	}
	s.waiting.Add(-1)
	ts := s.tenant(job.tenant)
	cls := s.classes[job.prio]
	ts.queued.Add(-1)
	cls.queued.Add(-1)
	ts.running.Add(1)
	cls.running.Add(1)
	s.journalStart(job)
	// The job left the staging slot, so the pump can stage the next one.
	s.wakePump()
}

// engine returns (creating if needed) the per-engine breakdown stats.
func (s *Service) engine(name string) *groupStat {
	if name == "" {
		name = "adaptivetc"
	}
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
// global and per-tenant/priority/engine metrics, run the invariant
// checker in check mode, publish the terminal record, and release the
// job's admission footprint. Every job passes through here exactly once,
// whether it ran on the pool or died in the queue.
func (s *Service) finalize(job *Job, rec *trace.Recorder, res sched.Result, err error) {
	job.cancel(nil) // release the context watcher and any deadline timer

	ts := s.tenant(job.tenant)
	cls := s.classes[job.prio]
	eng := s.engine(job.Req.Engine)
	s.idleParks.Add(res.Stats.Parks)
	s.idleWakes.Add(res.Stats.Wakes)

	state := StateDone
	switch {
	case err == nil:
		s.completed.Add(1)
		ts.completed.Add(1)
		cls.completed.Add(1)
		eng.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrCancelled):
		state = StateCancelled
		s.cancelled.Add(1)
		ts.cancelled.Add(1)
		cls.cancelled.Add(1)
	default:
		state = StateFailed
		s.failed.Add(1)
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

	job.mu.Lock()
	prev := job.state
	job.state, job.res, job.err, job.violations = state, res, err, viol
	job.mu.Unlock()
	// Release the admission footprint according to how far the job got.
	// The state mutex totally orders this against markRunning, so the
	// waiting counter and the queued/running gauges settle exactly once.
	// A forwarded job released its queue slot when it left for the peer
	// (Placed / adoptForwarded); only its pending gauge remains.
	switch prev {
	case StateRunning:
		ts.running.Add(-1)
		cls.running.Add(-1)
	case StateForwarded:
		s.forwardedNow.Add(-1)
	default:
		s.waiting.Add(-1)
		ts.queued.Add(-1)
		cls.queued.Add(-1)
	}
	ts.inflight.Add(-1)
	s.inflight.Add(-1)
	close(job.done)
	s.retire(job.ID)
	s.wakePump()
}

// retire records id as terminal and evicts the oldest terminal records
// beyond the retention bound.
func (s *Service) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append(s.order, id)
	for len(s.order) > s.cfg.RetainJobs {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.jobs, evict)
	}
}

// Ready reports whether the service accepts new jobs: true until Drain or
// Close begins. GET /readyz renders it.
func (s *Service) Ready() bool {
	return !s.draining.Load() && !s.isClosed()
}

// Drain gracefully winds the service down: new submissions are rejected
// with ErrDraining (and /readyz flips not-ready) while queued and running
// jobs finish. It returns nil once every accepted job has settled, or the
// context's error if that expires first; either way the service stays
// drained — the expected follow-up is Close.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Snapshot returns the current service metrics.
func (s *Service) Snapshot() Metrics {
	up := time.Since(s.started)
	p50, p99 := s.latencies.percentiles()
	completed := s.completed.Load()
	m := Metrics{
		Started:             s.started,
		UptimeSeconds:       up.Seconds(),
		Draining:            s.draining.Load(),
		Workers:             s.pool.Workers(),
		MaxConcurrentJobs:   s.pool.MaxConcurrentJobs(),
		ShardPolicy:         string(s.pool.ShardPolicy()),
		RunningJobs:         s.pool.RunningJobs(),
		BusyWorkers:         s.pool.BusyWorkers(),
		QueueCapacity:       s.capacity,
		QueueDepth:          int(s.waiting.Load()),
		ExternalQueueDepth:  s.q.depth(),
		InFlight:            s.inflight.Load(),
		ForwardedOut:        s.forwardedOut.Load(),
		ForwardedIn:         s.forwardedIn.Load(),
		ForwardRejected:     s.forwardRej.Load(),
		ForwardedNow:        s.forwardedNow.Load(),
		Submitted:           s.submitted.Load(),
		Completed:           completed,
		Failed:              s.failed.Load(),
		Cancelled:           s.cancelled.Load(),
		Rejected:            s.rejected.Load(),
		RateLimited:         s.rateLimited.Load(),
		QuotaRejected:       s.quotaRej.Load(),
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
	if s.pool.ShardPolicy() == wsrt.ShardSLO {
		m.SLOTargetMS = s.cfg.SLOTargetMS
		if m.SLOTargetMS <= 0 {
			m.SLOTargetMS = 50
		}
	}
	if up > 0 {
		m.ThroughputPerSecond = float64(completed) / up.Seconds()
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
			m.Tenants[name] = ts.snapshot()
		}
	}
	s.tenantsMu.Unlock()
	m.Priorities = make(map[string]GroupMetrics, len(priorityOrder))
	for _, p := range priorityOrder {
		m.Priorities[string(p)] = s.classes[p].snapshot()
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
// every watcher (and start marker) completes, and further submissions
// fail. For a graceful shutdown that finishes the backlog instead of
// failing it, call Drain first.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.q.close() // the pump drains the backlog, retiring every queued job
	s.pool.Close()
	s.wg.Wait()
}
