// Package sched defines the vocabulary shared by every scheduling engine in
// this repository: the Program model that task functions are written
// against, workspaces (the paper's taskprivate data), run options, results,
// statistics, and the cost model that drives virtual-time execution.
//
// Every benchmark in the paper is a backtracking enumeration whose task
// function has the shape
//
//	value(ws) = leaf value, or Σ over legal moves m of value(apply(ws, m)),
//
// with sync as the final statement before returning the sum. A Program
// expresses exactly that, and a suspended task frame is the tuple
// (workspace, depth, next-move index, partial sum) — the same "saved PC plus
// live variables" that the AdaptiveTC compiler's slow version restores.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"adaptivetc/internal/faults"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/vtime"
)

// Workspace is a task's private working state — the paper's taskprivate
// data (chessboard, Sudoku grid, …). Engines call Clone when and only when
// the strategy under test requires a workspace copy, so the number and size
// of Clone calls is itself a measured quantity.
type Workspace interface {
	// Clone returns an independent deep copy. The copy must be safe to
	// mutate concurrently with the original.
	Clone() Workspace
	// Bytes reports the copied payload size, used to charge copy cost.
	Bytes() int
}

// Reusable is an optional Workspace extension that supports copying in
// place. The runtime recycles the workspace of a child that returned
// unstolen into the next child's — the free() of the paper's taskprivate
// block — on every engine; the byte-copy is still made and still charged.
type Reusable interface {
	Workspace
	// CopyFrom overwrites the receiver with src's state. src has the same
	// dynamic type as the receiver.
	CopyFrom(src Workspace)
}

// Program is a recursive task function in the paper's spawn/sync shape.
// Implementations must be safe for concurrent use on *distinct* workspaces;
// all per-node mutable state lives in the Workspace.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Root returns a fresh root workspace. Each call returns an
	// independent workspace positioned at the root node.
	Root() Workspace
	// Terminal reports whether the node reached by ws at the given depth is
	// a leaf, and if so its value.
	Terminal(ws Workspace, depth int) (value int64, terminal bool)
	// Moves returns the number of candidate moves at this node. Candidates
	// may individually be illegal (Apply returns false).
	Moves(ws Workspace, depth int) int
	// Apply plays candidate move m, mutating ws, and reports whether the
	// move is legal. When it returns false it must leave ws unchanged.
	Apply(ws Workspace, depth, m int) bool
	// Undo reverses a successful Apply of move m at this depth.
	Undo(ws Workspace, depth, m int)
}

// Coster is an optional Program extension: per-node extra work in
// nanoseconds, charged on top of Costs.Node. The synthetic unbalanced trees
// use it to model the paper's "execution time of each node set to the
// average time of the task in the benchmarks".
type Coster interface {
	NodeCost(ws Workspace, depth int) int64
}

// Costs models the price of primitive scheduler actions in nanoseconds.
// Virtual-time runs advance worker clocks by these amounts; real-time runs
// ignore them (the actions themselves take real time). The defaults are
// calibrated to the magnitudes a C runtime on the paper's Xeon E5520 pays;
// see DESIGN.md §2.
type Costs struct {
	Node           int64 // base cost of visiting a node (terminal test etc.)
	Move           int64 // per candidate move (legality check, apply+undo)
	Spawn          int64 // creating a task: frame allocation + initialisation
	Push           int64 // deque push
	Pop            int64 // deque pop (THE protocol fast path)
	Steal          int64 // one steal attempt, successful or not
	CopyBase       int64 // workspace copy: fixed part — the paper's malloc/free pair, whatever Go's allocator did
	CopyBytesPerNs int64 // workspace copy throughput: bytes copied per ns (memcpy-like)
	PooledBase     int64 // workspace copy: fixed part under SYNCHED, which skips that pair
	Poll           int64 // Tascell per-node polling-flag check
	FlagPoll       int64 // one read of the local need_task flag (check version)
	NestedCall     int64 // Tascell per-node nested-function bookkeeping
	TascellMove    int64 // Tascell per-move workspace-reachability tax (Bytes>0)
	WaitTick       int64 // granularity of busy-wait loops at joins
	Respond        int64 // Tascell: backtrack + package one task for a thief
}

// DefaultCosts returns the calibrated default cost model.
func DefaultCosts() Costs {
	return Costs{
		Node:           15,
		Move:           8,
		Spawn:          30,
		Push:           15,
		Pop:            15,
		Steal:          400,
		CopyBase:       60,
		CopyBytesPerNs: 3,
		PooledBase:     15,
		Poll:           1,
		FlagPoll:       2,
		NestedCall:     1,
		TascellMove:    4,
		WaitTick:       2000,
		Respond:        800,
	}
}

// Options configures a run.
type Options struct {
	// Workers is the number of threads N. Zero means 1.
	Workers int
	// Ctx, when non-nil, cancels the run cooperatively: workers observe
	// cancellation (or deadline expiry) at their poll points — the thief
	// loop, node entry, sequential recursion, the special-task join wait —
	// and the run aborts with the context's cause as its error. Nil means
	// the run cannot be cancelled from outside. Cancellation is observed by
	// the wsrt-based engines and the serial engine; Tascell ignores it.
	Ctx context.Context
	// Platform executes the workers. Nil means a deterministic Sim.
	Platform vtime.Platform
	// Costs is the virtual cost model. The zero value means DefaultCosts.
	Costs *Costs
	// Cutoff overrides an engine's cutoff depth where meaningful
	// (Cutoff-programmer takes it from here; AdaptiveTC and Cutoff-library
	// compute ⌈log2 N⌉ themselves and ignore it unless ForceCutoff).
	Cutoff int
	// ForceCutoff makes AdaptiveTC use Options.Cutoff instead of ⌈log2 N⌉
	// (used by ablation benches).
	ForceCutoff bool
	// MaxStolenNum is the paper's max_stolen_num threshold before a
	// victim's need_task flag is raised. Zero means 20.
	MaxStolenNum int
	// Fast2Multiplier scales the fast_2 cutoff relative to the fast cutoff.
	// Zero means the paper's 2.
	Fast2Multiplier int
	// DequeCapacity bounds each worker's deque: Push overflows once
	// DequeCapacity-2 entries are live. It is a limit, not an allocation —
	// the ring starts at 64 slots (fewer if the capacity is smaller) and
	// doubles on demand up to it. A growable or relaxed deque has no limit,
	// and DequeCapacity only caps its first ring. Zero means 8192 entries.
	DequeCapacity int
	// GrowableDeque replaces the fixed-size THE deque with one that
	// doubles on overflow (the Chase–Lev / Michael-et-al. remedy the
	// paper's related work cites). Fixed is the default because the paper
	// treats overflow-proneness as an observable property.
	GrowableDeque bool
	// RelaxedDeque replaces the THE deque with the lock-reduced variant
	// whose owner Push/Pop avoid the owner lock outside the conflict window
	// (after Castañeda & Piña's relaxed work-stealing queues). Implies a
	// growable buffer; takes precedence over GrowableDeque. Runs using it
	// should be checked with the multiplicity-tolerant invariant checker
	// (trace.Laws.K) rather than the strict one.
	RelaxedDeque bool
	// StealPolicy names the victim-selection/steal-amount strategy of the
	// thief loop: "random" (default), "steal-half", "richest-first" or
	// "shard-local". Empty means "random", the paper's baseline. Unknown
	// names fall back to "random" at the runtime layer; front ends validate
	// earlier.
	StealPolicy string
	// Profile enables the per-phase time breakdown (working, copying,
	// deque management, polling, waiting). It costs a little extra
	// bookkeeping, so performance figures leave it off.
	Profile bool
	// Seed fixes the random victim-selection sequence. Zero means 1.
	Seed int64
	// VirtualLimit aborts a Sim run whose virtual clock passes this bound
	// (livelock guard). Zero means 5 minutes of virtual time.
	VirtualLimit int64
	// Tracer, when non-nil, records every scheduler event of the run
	// (spawns, deque traffic, steals, deposits, need_task transitions) into
	// per-worker buffers for invariant checking or Chrome trace export.
	// The runtime re-Inits it at the start of the run, so one Recorder can
	// be reused across runs but never shared by concurrent ones. Nil (the
	// default) keeps the zero-allocation hot path: every recording site is
	// behind a single nil check.
	Tracer *trace.Recorder
	// Faults, when non-nil, injects the plan's deterministic fault streams
	// into the run: forced steal failures at the deques, stalls and panics
	// at node entry, delayed deposits, forced overflows. Combined with the
	// Sim platform the whole perturbed schedule is a pure function of the
	// seeds and replays byte-identically. Nil (the default) keeps the
	// zero-allocation hot path: every injection site is behind a single nil
	// check, exactly like Tracer. Observed by the wsrt-based engines.
	Faults *faults.Plan
	// FirstSolution switches the run to first-solution-wins semantics: the
	// first worker to evaluate a terminal node with a nonzero value claims
	// it as the run's Value, signals Stop with ErrSolutionFound, and the
	// siblings unwind at their next poll point. The run completes
	// successfully with the winner's leaf value (a witness the family can
	// verify); a run that exhausts the tree without a nonzero leaf completes
	// normally with Value 0. Observed by the wsrt-based engines and the
	// serial engine (which deterministically returns the first nonzero leaf
	// in depth-first order); Tascell ignores it.
	FirstSolution bool
}

// WorkersOrDefault returns the worker count, defaulting to 1.
func (o Options) WorkersOrDefault() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

// CostsOrDefault returns the cost model, defaulting to DefaultCosts.
func (o Options) CostsOrDefault() Costs {
	if o.Costs != nil {
		return *o.Costs
	}
	return DefaultCosts()
}

// MaxStolenNumOrDefault returns max_stolen_num, defaulting to the paper's 20.
func (o Options) MaxStolenNumOrDefault() int {
	if o.MaxStolenNum <= 0 {
		return 20
	}
	return o.MaxStolenNum
}

// Fast2MultiplierOrDefault returns the fast_2 cutoff multiplier (paper: 2).
func (o Options) Fast2MultiplierOrDefault() int {
	if o.Fast2Multiplier <= 0 {
		return 2
	}
	return o.Fast2Multiplier
}

// DequeCapacityOrDefault returns the deque capacity, defaulting to 8192.
func (o Options) DequeCapacityOrDefault() int {
	if o.DequeCapacity <= 0 {
		return 8192
	}
	return o.DequeCapacity
}

// CutoffFor returns the cutoff the AdaptiveTC family should use: ⌈log2 N⌉
// unless ForceCutoff pins Options.Cutoff.
func (o Options) CutoffFor(workers int) int {
	if o.ForceCutoff {
		return o.Cutoff
	}
	return LogCutoff(workers)
}

// PlatformOrDefault returns the execution platform, defaulting to a
// deterministic Sim with a livelock guard.
func (o Options) PlatformOrDefault() vtime.Platform {
	if o.Platform != nil {
		return o.Platform
	}
	limit := o.VirtualLimit
	if limit == 0 {
		limit = int64(5 * time.Minute)
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return &vtime.Sim{Seed: seed, Limit: limit}
}

// LogCutoff returns ⌈log2 n⌉, the paper's initial cutoff for n workers
// (depth of the recursive call tree beyond which no tasks are created).
func LogCutoff(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Stats aggregates counters and, when profiling, per-phase time across all
// workers of a run. Times are nanoseconds in the run's time base (virtual
// under Sim).
type Stats struct {
	Nodes           int64 // nodes visited
	TasksCreated    int64 // real tasks (frames) created
	FakeTasks       int64 // plain recursive calls standing in for spawns
	SpecialTasks    int64 // AdaptiveTC special tasks pushed
	Steals          int64 // successful steals
	StealFails      int64 // failed steal attempts
	Requests        int64 // Tascell task requests answered
	WorkspaceCopies int64
	WorkspaceBytes  int64 // bytes copied for workspaces
	Suspends        int64 // tasks suspended at a sync point
	Polls           int64 // need_task / request polls
	MaxDequeDepth   int64 // high-water mark over all deques

	// Idle-path counters of wall-clock runs (always zero under Sim, where
	// nothing parks): Parks counts the times a starved thief blocked its
	// goroutine, Wakes the wake-ups busy workers sent from Push.
	Parks int64
	Wakes int64

	// Per-phase time, populated when Options.Profile is set.
	WorkTime    int64 // executing program nodes
	CopyTime    int64 // workspace allocation + copying
	DequeTime   int64 // task creation + push/pop/steal bookkeeping
	PollTime    int64 // polling for requests / need_task
	WaitTime    int64 // waiting for children at joins (incl. special task)
	StealTime   int64 // thief time spent attempting steals
	RespondTime int64 // Tascell victim time packaging tasks for thieves
	WorkerTime  int64 // Σ over workers of total time from start to exit

	// QueueWait is the wall-clock time a resident-pool job spent in the
	// admission queue before its workers started (zero for batch runs).
	QueueWait int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Nodes += other.Nodes
	s.TasksCreated += other.TasksCreated
	s.FakeTasks += other.FakeTasks
	s.SpecialTasks += other.SpecialTasks
	s.Steals += other.Steals
	s.StealFails += other.StealFails
	s.Requests += other.Requests
	s.WorkspaceCopies += other.WorkspaceCopies
	s.WorkspaceBytes += other.WorkspaceBytes
	s.Suspends += other.Suspends
	s.Polls += other.Polls
	if other.MaxDequeDepth > s.MaxDequeDepth {
		s.MaxDequeDepth = other.MaxDequeDepth
	}
	s.Parks += other.Parks
	s.Wakes += other.Wakes
	s.WorkTime += other.WorkTime
	s.CopyTime += other.CopyTime
	s.DequeTime += other.DequeTime
	s.PollTime += other.PollTime
	s.WaitTime += other.WaitTime
	s.StealTime += other.StealTime
	s.RespondTime += other.RespondTime
	s.WorkerTime += other.WorkerTime
	s.QueueWait += other.QueueWait
}

// DeriveWorkTime sets WorkTime to the worker time left over after the
// profiled overhead components. The components are accounted independently
// of WorkerTime, and nested charge windows (a poll interval inside a deque
// operation, say) can overlap, so on tiny runs the subtraction can dip
// below zero; clamp it — a negative "useful work" figure is never
// meaningful and poisons downstream overhead-percentage reports.
func (s *Stats) DeriveWorkTime() {
	s.WorkTime = max(0, s.WorkerTime-s.CopyTime-s.DequeTime-s.PollTime-s.WaitTime-s.StealTime-s.RespondTime)
}

// Result is the outcome of one run.
type Result struct {
	Value    int64 // the program's answer (e.g. number of solutions)
	Makespan int64 // ns: virtual under Sim, wall-clock under Real
	Workers  int
	Engine   string
	Program  string
	Stats    Stats
	// Shard lists the global ids of the resident-pool workers the job ran
	// on (nil for batch runs, which own every worker they start, and for
	// pool jobs that never started). Workers equals len(Shard) for a pool
	// job — the shard width, not the pool's total worker count.
	Shard []int `json:",omitempty"`
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s P=%d value=%d makespan=%.3fms tasks=%d steals=%d copies=%d",
		r.Engine, r.Program, r.Workers, r.Value,
		float64(r.Makespan)/1e6, r.Stats.TasksCreated, r.Stats.Steals, r.Stats.WorkspaceCopies)
}

// Engine is a scheduling strategy under test.
type Engine interface {
	// Name identifies the engine ("cilk", "tascell", "adaptivetc", …).
	Name() string
	// Run executes p to completion and returns the result.
	Run(p Program, opt Options) (Result, error)
}

// ErrDequeOverflow reports that a fixed-size deque filled up. The paper
// lists overflow-proneness as a Cilk weakness; engines surface it rather
// than resizing so the effect is observable.
var ErrDequeOverflow = errors.New("sched: deque overflow")
