package wsrt

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"adaptivetc/internal/deque"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/vtime"
)

// ErrJobPanicked tags job failures caused by a panic in the program or the
// engine (as opposed to a sched.Abort, which is the runtime's own orderly
// unwinding). A resident pool counts these as quarantined jobs: the job
// fails, the shard heals, the service keeps running.
var ErrJobPanicked = errors.New("wsrt: job panicked")

// Engine is the per-strategy part of the runtime: how to execute the root
// task and how to resume a stolen frame (the paper's slow version). Both
// return (value, completed); completed is false when the computation
// detached — the frame was re-stolen or suspended and its value will arrive
// at its parent through the deposit protocol.
type Engine interface {
	Root(w *Worker) (int64, bool)
	Resume(w *Worker, f *Frame) (int64, bool)
}

// Runtime ties N workers, their deques and an Engine together for one job:
// either a whole batch Run, or one root task executed on a resident Pool.
// The runtime is the job-scoped half of the pool/job split — it carries the
// program, the result, the failure and the tracer, while the workers, their
// Procs and their deques belong to whoever is hosting the job (Run builds
// them per call; a Pool keeps them for its lifetime).
type Runtime struct {
	Prog   sched.Program
	Costs  sched.Costs
	N      int
	Deques []deque.WorkDeque
	Eng    Engine

	profile bool
	tracer  *trace.Recorder // nil unless Options.Tracer was set
	faults  *faults.Plan    // nil unless fault injection was requested
	stop    *sched.Stop     // cooperative cancellation; may be nil (never stopped)
	done    atomic.Bool
	value   atomic.Int64
	failure atomic.Pointer[runError]

	// firstSolution switches the job to first-solution-wins semantics
	// (Options.FirstSolution / JobSpec.FirstSolution): each worker sees the
	// program through a wrapper that claims the first nonzero terminal value
	// via claimSolution and unwinds everyone else. solved latches the claim.
	firstSolution bool
	solved        atomic.Bool

	// stealPolicy is the job's resolved victim/amount strategy and
	// stealSeed the seed its per-worker thief streams derive from. Both are
	// set by whoever builds the runtime (Run, Pool.startJob).
	stealPolicy StealPolicy
	stealSeed   int64

	// The idle path of wall-clock runtimes (idle.go). wake is lent by the
	// runtime's host and buffers one token per worker, so a send never
	// blocks. It is nil under Sim, where a blocked goroutine would stall
	// virtual time: nothing parks there and sleepers stays zero.
	sleepers atomic.Int32
	wake     chan struct{}
}

// stealSeed normalises the run seed for thief-stream derivation, matching
// PlatformOrDefault's Sim seeding (zero means 1).
func stealSeed(opt sched.Options) int64 {
	if opt.Seed == 0 {
		return 1
	}
	return opt.Seed
}

type runError struct{ err error }

// Done reports whether the run has completed (or failed).
func (rt *Runtime) Done() bool { return rt.done.Load() }

// fail records err as the run's failure (first error wins) and releases
// every worker. Beyond the done flag — which only thief loops poll — it
// fires the cooperative stop flag: a worker can be parked in an engine wait
// loop (the AdaptiveTC special-task join) polling the stop flag for
// deposits that a failed run will never send, and without the signal a
// co-worker's panic or deque overflow would wedge it there forever.
// Quarantine depends on every worker of the job unwinding.
func (rt *Runtime) fail(err error) {
	rt.failure.CompareAndSwap(nil, &runError{err: err})
	rt.done.Store(true)
	rt.stop.Signal(err)
	rt.wakeAll()
}

// complete records the run's root value and reports whether the completion
// took effect — callers record the trace OpComplete only on true, so the
// checker sees exactly the completions that decided the run. A recorded
// failure is final: a worker can be mid-Resume on a stolen frame when
// another worker aborts (deque overflow), and its deposit cascade may still
// reach a nil parent — that late completion must not overwrite the failure's
// done/value state and dress the run up as successful. A claimed first
// solution is equally final: the winner already stored the run's value.
func (rt *Runtime) complete(v int64) bool {
	if rt.failure.Load() != nil || rt.solved.Load() {
		return false
	}
	rt.value.Store(v)
	rt.done.Store(true)
	rt.wakeAll()
	return true
}

// claimSolution races to publish v as the run's first solution. The winner
// stores the value, records the run's single OpComplete on its own trace
// log, and fires the stop flag with ErrSolutionFound so every sibling —
// including the claiming worker itself, which panics right after — unwinds
// at its next poll point. Losers of the race (a second solution found before
// the stop propagated, or a duplicated frame under the relaxed deque
// re-reaching the same leaf) get false and record nothing.
func (rt *Runtime) claimSolution(w *Worker, v int64) bool {
	if !rt.solved.CompareAndSwap(false, true) {
		return false
	}
	rt.value.Store(v)
	rt.done.Store(true)
	if w.tr != nil {
		w.tr.Add(w.Proc.Now(), trace.OpComplete, 0, v, 0)
	}
	rt.stop.Signal(sched.ErrSolutionFound)
	rt.wakeAll()
	return true
}

// firstSolutionProg is the per-worker program view of a first-solution job:
// Terminal is intercepted so a nonzero leaf claims the run instead of
// contributing to a sum, and the claiming worker unwinds immediately via the
// Abort path (runJob treats ErrSolutionFound as a clean finish). Everything
// else forwards to the job's real program through the embedded interface.
type firstSolutionProg struct {
	sched.Program
	w *Worker
}

func (p firstSolutionProg) Terminal(ws sched.Workspace, depth int) (int64, bool) {
	v, term := p.Program.Terminal(ws, depth)
	if term && v != 0 {
		p.w.rt.claimSolution(p.w, v)
		panic(sched.Abort{Err: sched.ErrSolutionFound})
	}
	return v, term
}

// NodeCost forwards the job's per-node cost hook, if it has one, so that the
// walker charges a first-solution job's nodes as it would the plain job's.
func (p firstSolutionProg) NodeCost(ws sched.Workspace, depth int) int64 {
	if c, ok := p.Program.(sched.Coster); ok {
		return c.NodeCost(ws, depth)
	}
	return 0
}

// Aborts — deque overflow, cooperative cancellation — travel as
// panic(sched.Abort{...}) so that deep recursion unwinds; the worker's top
// level recovers and records the error as the run's failure.

// workerPoolCap bounds each worker's workspace pool and frame free-list.
// Both recycle per-spawn allocations on every engine, and both must stay
// bounded: a run can finalise many more frames (and release many more
// workspaces) than it will ever need live again at once — an unbalanced
// subtree can complete millions of tasks whose memory would otherwise sit in
// the lists until the run ends. The live demand at any instant is on the
// order of the deque depth, so a small cap keeps the recycle hit-rate near
// 100% while letting the excess go back to the garbage collector.
const workerPoolCap = 64

// Worker is one scheduler thread. Its Walker, bound to the job's program view
// by bind, visits nodes, charges moves, gates the clock and runs Sequence.
type Worker struct {
	sched.Walker
	ID    int
	Deque deque.WorkDeque

	rt     *Runtime
	pool   []pooledWS
	frames []*Frame

	// tr is this worker's trace log; nil unless the run is traced. Every
	// recording site below is a single nil check when tracing is off, so
	// the zero-alloc hot path is untouched.
	tr *trace.WorkerLog

	// fi is this worker's private fault-injection stream; nil unless the
	// run carries a fault plan with worker-side faults. Injection sites
	// follow the tracing discipline: one nil check on the hot path, body
	// out of line.
	fi *faults.Injector

	// thief is this worker's steal strategy for the current job (victim
	// order and steal amount). Built per job from the resolved StealPolicy
	// so its PRNG stream restarts deterministically with each job's seed.
	thief Thief

	// intake holds the tail of a batch steal: StealN hands the thief up to
	// MaxStealBatch frames in one critical section, the first is resumed
	// immediately and the rest wait here. They are drained FIFO, one per
	// thief-loop iteration, exactly like direct steals — and never pushed
	// onto the worker's own deque, where a second-level steal would
	// register a deposit debt nobody pays. stealBuf is the reusable
	// destination array of the StealN call itself.
	intake   []*Frame
	stealBuf [MaxStealBatch]deque.Entry

	// idleFails counts consecutive failed steals and picks the idle phase
	// (spin, yield, park); parkTimer bounds a park and is reused across
	// parks and, on a pool worker, across jobs. See idle.go.
	idleFails int
	parkTimer *time.Timer

	// retry is trySteal, bound once (a method value allocates) for
	// yieldIdle to hand to the platform.
	retry func() bool
}

// pooledWS is a released workspace held twice over: as the Reusable that
// Clone copies into and as the Workspace it hands out, so that handing it
// out costs no interface conversion.
type pooledWS struct {
	ws sched.Workspace
	r  sched.Reusable
}

// bind attaches the worker to job rt as its local-th worker: identity, fresh
// counters, trace log, fault stream, thief and program view. The batch Run
// binds each worker once; a pool worker is re-bound per job, adopting its
// shard-local identity — victim selection, root election (local 0) and trace
// logs are all indexed within the job's deque slice. The thief is rebuilt per
// job: its PRNG stream restarts from the job's seed and the local id, so a
// job's victim sequence does not depend on what ran on this worker before.
// A first-solution job's workers walk a firstSolutionProg wrapper, so every
// engine path — node bodies, sequential tails — sees the intercepted
// Terminal without any engine changes.
func (w *Worker) bind(rt *Runtime, local int) {
	w.ID, w.rt, w.Stats = local, rt, sched.Stats{}
	w.tr = nil
	if rt.tracer != nil {
		w.tr = rt.tracer.WorkerLog(local)
	}
	w.fi = rt.faults.Worker(local)
	w.thief = rt.stealPolicy.NewThief(local, rt.N, rt.stealSeed)
	if w.retry == nil {
		w.retry = w.trySteal
	}
	var prog sched.Program = rt.Prog
	if rt.firstSolution {
		prog = firstSolutionProg{Program: rt.Prog, w: w}
	}
	w.Start(prog, &rt.Costs, rt.stop)
}

// BeginNode is the fault hook plus the Walker's node visit. The visit is a
// cancellation poll point: a stopped job unwinds there via sched.Abort, so
// even a worker deep inside a task's recursion observes cancellation within
// one node.
func (w *Worker) BeginNode(ws sched.Workspace, depth int) {
	if w.fi != nil {
		w.injectNode()
	}
	w.Visit(ws, depth)
}

// yieldIdle is Yield for a thief whose steal just failed: under Sim the core
// runs trySteal in place of resuming the thief (vtime.YieldIdle).
func (w *Worker) yieldIdle() {
	if !w.Wall() {
		vtime.YieldIdle(w.Proc, w.retry)
	}
}

// injectNode draws this node's faults: a stall (virtual under Sim,
// wall-clock under Real) and/or an injected program panic. Kept out of
// BeginNode's body so the unfaulted hot path pays only the nil test.
//
//go:noinline
func (w *Worker) injectNode() {
	if d := w.fi.StallNS(); d > 0 {
		w.Proc.Sleep(d)
	}
	if w.fi.PanicNow() {
		panic(faults.PanicValue{Worker: w.ID})
	}
}

// PollNeedTask reads the worker's need_task flag — the check version's one
// poll per fake task (the _adpTC_need_task latch of Appendix C) — charging
// Costs.FlagPoll and counting the poll. Like every accounting site it reads
// the clock only when the run is profiled.
func (w *Worker) PollNeedTask() bool {
	t0 := w.now()
	w.Advance(w.rt.Costs.FlagPoll)
	w.Stats.Polls++
	need := w.Deque.NeedTask()
	if w.rt.profile {
		w.Stats.PollTime += w.Proc.Now() - t0
	}
	return need
}

// JoinSpecial is sync_specialtask: the owner of special task s waits, in
// Costs.WaitTick sleeps like the paper's usleep loop, until every deposit s
// expects has arrived, and returns s's total including localSum. The wait
// polls the stop flag, because a stopped job's outstanding deposits may
// never arrive.
func (w *Worker) JoinSpecial(s *Frame, localSum int64) int64 {
	t0 := w.now()
	for {
		total, done := s.DrainedAfter(localSum)
		if done {
			if w.rt.profile {
				w.Stats.WaitTime += w.Proc.Now() - t0
			}
			return total
		}
		w.rt.stop.Check()
		w.Proc.Sleep(w.rt.Costs.WaitTick)
	}
}

// ChargeTask accounts the creation of one real task (frame allocation and
// initialisation — the paper's "task creation" overhead). Engines call it
// at the entry of every task version, including for leaves, matching the
// alloc/free pair in the paper's Appendix B; the Go Frame object itself is
// only materialised when the node actually spawns.
func (w *Worker) ChargeTask() {
	t0 := w.now()
	w.Advance(w.rt.Costs.Spawn)
	w.Stats.TasksCreated++
	w.addDeque(t0)
}

// NewFrame builds a frame for the node at tree depth `depth` with
// cutoff-relative depth `rel`, reusing a recycled frame when the free-list
// has one. Cost is accounted separately via ChargeTask.
func (w *Worker) NewFrame(parent *Frame, ws sched.Workspace, depth, rel int, kind Kind) *Frame {
	var f *Frame
	if n := len(w.frames); n > 0 {
		f = w.frames[n-1]
		// The slot is not nilled: the stale pointer beyond len duplicates a
		// frame that is live anyway (it is being handed out right now), and
		// can over-retain at most workerPoolCap dead frames per worker until
		// the slot is overwritten. Skipping the store skips its write
		// barrier, which pays for the tracing nil-check this path gained.
		w.frames = w.frames[:n-1]
		f.reset(parent, ws, depth, rel, kind)
	} else {
		f = &Frame{Parent: parent, Depth: depth, Rel: rel, Kind: kind, WS: ws}
	}
	if kind == KindSpecial {
		f.waited = true
		w.Stats.SpecialTasks++
	}
	if w.tr != nil {
		w.traceSpawn(f, depth, kind)
	}
	return f
}

// traceSpawn assigns f its trace identity and records the spawn. Kept out
// of NewFrame's body so the untraced hot path pays only the nil test — the
// inlined event construction otherwise costs NewFrame ~25% (see
// BenchmarkFrameRecycle against BENCH_hotpath.json).
//
//go:noinline
func (w *Worker) traceSpawn(f *Frame, depth int, kind Kind) {
	f.seq = w.tr.NextSeq()
	w.tr.Add(w.Proc.Now(), trace.OpSpawn, f.seq, int64(depth), int64(kind))
}

// FreeFrame returns a dead frame to the worker's free-list for reuse by a
// later NewFrame. The caller must be the frame's sole owner: its executor
// after a SyncComplete (nothing pending, nothing in a deque), or the
// depositor that just finalised it — the two points where the deposit
// protocol guarantees no other reference survives. Frames freed by one
// worker may have been allocated by another; free-lists are per-worker, so
// no synchronisation is needed.
func (w *Worker) FreeFrame(f *Frame) {
	if len(w.frames) < workerPoolCap {
		w.frames = append(w.frames, f)
	}
}

// Push pushes f on the worker's own deque, accounting the cost. It aborts
// the run on overflow (the deque is a fixed-size array, as in Cilk).
func (w *Worker) Push(f *Frame) {
	t0 := w.now()
	seq := f.seq // a thief may steal, finish, free and reuse f before Push returns
	w.Advance(w.rt.Costs.Push)
	if w.fi != nil && w.fi.ForceOverflow() {
		panic(sched.Abort{Err: fmt.Errorf("%w (%w): worker %d, program %s",
			sched.ErrDequeOverflow, faults.ErrInjected, w.ID, w.rt.Prog.Name())})
	}
	if !w.Deque.Push(f) {
		panic(sched.Abort{Err: fmt.Errorf("%w: worker %d, capacity %d, program %s",
			sched.ErrDequeOverflow, w.ID, w.Deque.Cap(), w.rt.Prog.Name())})
	}
	if w.tr != nil {
		w.tr.Add(w.Proc.Now(), trace.OpPush, seq, 0, 0)
	}
	w.addDeque(t0)
	if w.rt.sleepers.Load() != 0 {
		w.wakeSleeper()
	}
}

// Pop pops the worker's own deque tail, accounting the cost.
func (w *Worker) Pop() (deque.Entry, bool) {
	t0 := w.now()
	w.Advance(w.rt.Costs.Pop)
	e, ok := w.Deque.Pop()
	if w.tr != nil {
		if ok {
			w.tr.Add(w.Proc.Now(), trace.OpPop, e.(*Frame).seq, 0, 0)
		} else {
			w.tr.Add(w.Proc.Now(), trace.OpPopEmpty, 0, 0, 0)
		}
	}
	w.addDeque(t0)
	return e, ok
}

// PopSpecial pops the special task f the worker pushed and reports whether
// any of f's children were stolen over the marker in the meantime.
func (w *Worker) PopSpecial(f *Frame) (stolen bool) {
	t0 := w.now()
	w.Advance(w.rt.Costs.Pop)
	stolen = w.Deque.PopSpecial()
	if w.tr != nil {
		a := int64(0)
		if stolen {
			a = 1
		}
		w.tr.Add(w.Proc.Now(), trace.OpPopSpecial, f.seq, a, 0)
	}
	w.addDeque(t0)
	return stolen
}

// Clone copies ws for a child task — the paper's taskprivate malloc + memcpy.
// The memory comes from the worker's pool when Release has put a buffer there
// (C's free; see Fast.Loop) and from the program's own Clone otherwise, on
// every engine and both platforms alike. What an engine selects is only the
// virtual charge: Costs.CopyBase for the allocation the paper's engines pay
// per spawn, Costs.PooledBase when synched (Cilk-SYNCHED skips the
// malloc/free pair), plus the per-byte cost either way. Programs without
// taskprivate data (Bytes() == 0 — fib, comp) are charged nothing: their
// spawn arguments travel by value, at a price already inside Costs.Spawn.
func (w *Worker) Clone(ws sched.Workspace, synched bool) sched.Workspace {
	t0 := w.now()
	if b := int64(ws.Bytes()); b > 0 {
		c := &w.rt.Costs
		base := c.CopyBase
		if synched {
			base = c.PooledBase
		}
		w.Advance(base + b/c.CopyBytesPerNs)
		w.Stats.WorkspaceCopies++
		w.Stats.WorkspaceBytes += b
	}
	var clone sched.Workspace
	if n := len(w.pool); n > 0 {
		p := w.pool[n-1]
		w.pool = w.pool[:n-1]
		p.r.CopyFrom(ws)
		clone = p.ws
	} else {
		clone = ws.Clone()
	}
	w.addCopy(t0)
	return clone
}

// Release returns a child workspace to the worker's pool for the next Clone.
// The caller must hold the last reference: see Fast.Loop for the argument
// where a child returns, and freeFinished where a stolen or suspended frame
// ends. Workspaces that cannot be copied into (not sched.Reusable) go to the
// collector instead.
func (w *Worker) Release(ws sched.Workspace) {
	if r, ok := ws.(sched.Reusable); ok && len(w.pool) < workerPoolCap {
		w.pool = append(w.pool, pooledWS{ws, r})
	}
}

// DropWorkspacePool discards the pooled workspaces. A resident worker must
// call this between jobs: the pool is typed by the program that filled it,
// and Clone's CopyFrom would panic if a job of one program popped a
// workspace recycled from another.
func (w *Worker) DropWorkspacePool() { w.pool = nil }

// Deposit delivers v to parent, finalising and cascading when a suspended
// frame's last expected deposit arrives. A nil parent completes the run.
// Each finalised frame is recycled with its workspace (freeFinished): the
// finalising depositor owns both outright (its executor abandoned the frame
// at suspension, every earlier executor deposited before this last expected
// deposit, and children run on clones of their own), so after reading the
// total and the parent link they go to the worker's free-list and pool.
func (w *Worker) Deposit(parent *Frame, v int64) {
	if w.fi != nil {
		if d := w.fi.DepositDelayNS(); d > 0 {
			w.Proc.Sleep(d) // perturb the join/deposit race; no lock is held here
		}
	}
	for {
		if parent == nil {
			completed := w.rt.complete(v)
			if w.tr != nil {
				ts := w.Proc.Now()
				w.tr.Add(ts, trace.OpDeposit, 0, v, 0)
				if completed {
					w.tr.Add(ts, trace.OpComplete, 0, v, 0)
				}
			}
			return
		}
		if w.tr != nil {
			w.tr.Add(w.Proc.Now(), trace.OpDeposit, parent.seq, v, 0)
		}
		total, finalise := parent.deposit(v)
		if !finalise {
			return
		}
		if w.tr != nil {
			w.tr.Add(w.Proc.Now(), trace.OpFinalize, parent.seq, total, 0)
		}
		next := parent.Parent
		w.freeFinished(parent)
		v, parent = total, next
	}
}

// ExpectDeposit registers one future deposit on f outside the steal path
// (see Frame.ExpectDeposit), recording it in the trace. Engines must use
// this wrapper rather than the Frame method so the invariant checker sees
// every registered debt.
func (w *Worker) ExpectDeposit(f *Frame) {
	if w.tr != nil {
		w.tr.Add(w.Proc.Now(), trace.OpExpect, f.seq, 0, 0)
	}
	f.ExpectDeposit()
}

// CancelExpected withdraws one ExpectDeposit registration on f (see
// Frame.CancelExpected), recording it in the trace.
func (w *Worker) CancelExpected(f *Frame) {
	if w.tr != nil {
		w.tr.Add(w.Proc.Now(), trace.OpCancel, f.seq, 0, 0)
	}
	f.CancelExpected()
}

// Sync brings f's final executor to its synchronisation point with the
// executor's partial sum. It returns (total, true) when nothing is
// outstanding, and (0, false) when deposits are: the frame is then suspended
// and belongs to its depositors (see Frame.Sync), and the suspension is
// counted and traced here. The trace identity is read before the frame is
// given up — the last depositor may finalise, free and reuse it at once.
func (w *Worker) Sync(f *Frame, localSum int64) (int64, bool) {
	seq := f.seq
	total, out := f.Sync(localSum)
	if out == SyncSuspended {
		w.Stats.Suspends++
		if w.tr != nil {
			w.tr.Add(w.Proc.Now(), trace.OpSuspend, seq, 0, 0)
		}
		return 0, false
	}
	return total, true
}

func (w *Worker) now() int64 {
	if w.rt.profile {
		return w.Proc.Now()
	}
	return 0
}

func (w *Worker) addDeque(t0 int64) {
	if w.rt.profile {
		w.Stats.DequeTime += w.Proc.Now() - t0
	}
}

func (w *Worker) addCopy(t0 int64) {
	if w.rt.profile {
		w.Stats.CopyTime += w.Proc.Now() - t0
	}
}

// thiefLoop steals until the run completes. Each iteration polls the job's
// stop flag, so an idle thief observes cancellation without waiting for a
// task to abort under it. Victim order and steal amount come from the
// worker's Thief (built from the job's StealPolicy); stolen frames queue in
// the intake buffer and drain one per iteration, so a steal's work
// interleaves with the loop's poll points whatever its batch size. A failed
// steal costs Costs.Steal and one scheduling point on every platform. On a
// wall-clock runtime the thief then backs off through idleBackoff (spin,
// yield, park). Elsewhere the point is yieldIdle: the Sim core makes the
// thief's next attempts itself, through the same trySteal, until one finds
// work or the run ends, and resumes the thief only then.
func (w *Worker) thiefLoop() {
	rt := w.rt
	for !rt.done.Load() {
		rt.stop.Check()
		if n := len(w.intake); n > 0 {
			f := w.intake[0]
			copy(w.intake, w.intake[1:])
			w.intake[n-1] = nil
			w.intake = w.intake[:n-1]
			w.resumeStolen(f)
			w.Yield()
			continue
		}
		if !w.trySteal() {
			w.idleFails = 0
			continue
		}
		if rt.wake == nil {
			w.yieldIdle()
			continue
		}
		w.idleBackoff()
		w.Yield()
	}
}

// trySteal is one steal attempt of thiefLoop; it reports whether the attempt
// failed. It makes no attempt, and returns false, when the loop would not:
// the run is done or stopping, or intake holds work. A successful attempt
// notes the batch and queues every frame in intake, the oldest first, for
// the loop's intake branch to resume. The Sim core also calls it, as the
// retry of a thief paused in yieldIdle, without resuming the thief.
func (w *Worker) trySteal() bool {
	rt := w.rt
	if rt.done.Load() || rt.stop.Stopped() || len(w.intake) > 0 {
		return false
	}
	victim, amount := w.ID, 1
	if rt.N > 1 {
		victim, amount = w.thief.Pick(rt.Deques[:rt.N])
	}
	t0 := w.now()
	// One Costs.Steal charge per attempt regardless of the amount: the
	// batch shares one critical section, which is the whole point of
	// stealing more than one entry. The amount is clamped from below as
	// well: whatever a Thief asks for, an attempt is an attempt, and its
	// failure must bump the victim's stolen_num or the starvation signal
	// would never reach a victim whose thieves ask for nothing.
	w.Advance(rt.Costs.Steal)
	// Under Sim nothing else runs during the attempt, so an empty victim
	// fails it without its lock (deque.FailEmpty). A wall-clock thief keeps
	// the locked path: how fast it fails decides when it parks (DESIGN §8.2).
	d, n := rt.Deques[victim], 0
	if w.Wall() || !d.FailEmpty() {
		n = d.StealN(w.stealBuf[:min(max(amount, 1), MaxStealBatch)])
	}
	if rt.profile {
		w.Stats.StealTime += w.Proc.Now() - t0
	}
	if n == 0 {
		w.Stats.StealFails++
		if w.tr != nil {
			w.tr.Add(w.Proc.Now(), trace.OpStealFail, 0, int64(victim), 0)
		}
		return true
	}
	for i := range n {
		f := w.stealBuf[i].(*Frame)
		w.stealBuf[i] = nil
		w.noteStolen(f, victim)
		w.intake = append(w.intake, f)
	}
	return false
}

// noteStolen accounts one stolen frame — counter and trace record — at
// steal time, before the frame waits in the intake buffer for its resume.
// Recording the whole batch up front keeps the checker's steal-symmetry law
// exact: the deque emitted one TraceStealOK per entry inside StealN's
// critical section, so the worker must answer with one OpSteal per entry,
// not per resume.
func (w *Worker) noteStolen(f *Frame, victim int) {
	w.Stats.Steals++
	if w.tr != nil {
		// The theft registered one deposit: on f itself for a stolen
		// continuation, on its parent for a help-first child.
		credit := f
		if f.Kind == KindChild && f.Parent != nil {
			credit = f.Parent
		}
		w.tr.Add(w.Proc.Now(), trace.OpSteal, f.seq, int64(victim), int64(credit.seq))
	}
}

// resumeStolen runs a stolen frame to its completion or detachment and
// delivers its value (the slow-version body shared by direct steals and
// intake drains). A completed frame goes back with its workspace
// (freeFinished): its subtree is done and its sync saw no pending deposits,
// so every earlier executor has deposited and stopped reading f.WS, and the
// thief is the last owner of both.
func (w *Worker) resumeStolen(f *Frame) {
	v, completed := w.rt.Eng.Resume(w, f)
	if completed {
		parent := f.Parent // read before f is recycled
		w.freeFinished(f)
		w.Deposit(parent, v)
	}
}

// freeFinished recycles a frame that finished away from the stack that
// created it — a stolen frame its thief completed, or a suspended frame its
// last depositor finalised — together with its workspace, which the frame's
// creator left to it when the frame detached. The root frame (no parent)
// keeps its workspace, which came from Program.Root rather than a Clone; a
// special frame shares its workspace with the fake task that created it, but
// is waited, never stolen or finalised, and so never arrives here.
func (w *Worker) freeFinished(f *Frame) {
	if f.Parent != nil && f.Kind != KindSpecial {
		w.Release(f.WS)
	}
	w.FreeFrame(f)
}

// runJob is one worker's whole share of a job: run the root (worker 0),
// then steal until the job completes. A sched.Abort panic — overflow,
// cancellation — is recovered here and recorded as the job's failure.
// swallowPanics selects what happens to any *other* panic (a bug in a
// Program or an engine): batch runs propagate it to the caller, a resident
// pool converts it into a job failure so one bad program cannot take the
// service down with it.
func (w *Worker) runJob(swallowPanics bool) {
	rt := w.rt
	// A pool worker's intake can carry abandoned frames from an aborted
	// previous job; they died with that job's runtime and must not leak
	// into this one.
	for i := range w.intake {
		w.intake[i] = nil
	}
	w.intake = w.intake[:0]
	w.idleFails = 0
	start := w.Proc.Now()
	defer func() {
		w.Stats.WorkerTime += w.Proc.Now() - start
		if r := recover(); r != nil {
			if ae, ok := r.(sched.Abort); ok {
				// A first-solution claim unwinds every worker through the
				// Abort path, but the run completed: the winner already
				// stored the value and set done. Not a failure.
				if errors.Is(ae.Err, sched.ErrSolutionFound) {
					return
				}
				rt.fail(ae.Err)
				return
			}
			// Record the failure (and fire the stop flag) even when the
			// panic propagates: co-workers must unwind either way, or a
			// batch run's panic would leave a special-task waiter spinning
			// behind the propagating goroutine.
			rt.fail(fmt.Errorf("%w: %v", ErrJobPanicked, r))
			if !swallowPanics {
				panic(r)
			}
		}
	}()
	if w.ID == 0 {
		v, completed := rt.Eng.Root(w)
		if completed && rt.complete(v) && w.tr != nil {
			w.tr.Add(w.Proc.Now(), trace.OpComplete, 0, v, 0)
		}
	}
	w.thiefLoop()
}

// collectStats folds the per-worker counters and the deque high-water marks
// of one finished job into a single Stats.
func collectStats(workers []*Worker, deques []deque.WorkDeque, profile bool) sched.Stats {
	var st sched.Stats
	for _, w := range workers {
		if w != nil {
			st.Add(w.Stats)
		}
	}
	for _, d := range deques {
		if d.MaxDepth() > st.MaxDequeDepth {
			st.MaxDequeDepth = d.MaxDepth()
		}
	}
	if profile {
		st.DeriveWorkTime()
	}
	return st
}

// result assembles the finished job's Result — everything but the makespan,
// which only the job's host can measure — and its error. It reads the deque
// high-water marks, so a pool calls it before resetting the shard's deques.
func (rt *Runtime) result(name string, workers []*Worker) (sched.Result, error) {
	res := sched.Result{
		Value:   rt.value.Load(),
		Workers: rt.N,
		Engine:  name,
		Program: rt.Prog.Name(),
		Stats:   collectStats(workers, rt.Deques, rt.profile),
	}
	if f := rt.failure.Load(); f != nil {
		return res, f.err
	}
	return res, nil
}

// newDeque builds one worker deque according to opt. RelaxedDeque wins over
// GrowableDeque (the relaxed variant grows by construction).
func newDeque(opt sched.Options) deque.WorkDeque {
	if opt.RelaxedDeque {
		return deque.NewRelaxed(opt.DequeCapacityOrDefault(), opt.MaxStolenNumOrDefault())
	}
	if opt.GrowableDeque {
		return deque.NewGrowable(opt.DequeCapacityOrDefault(), opt.MaxStolenNumOrDefault())
	}
	return deque.New(opt.DequeCapacityOrDefault(), opt.MaxStolenNumOrDefault())
}

// newRuntime builds one job's Runtime over deques, one per worker, and
// installs the job's hooks on them. opt carries the job's own profile,
// tracer, fault plan, steal policy and first-solution mode; the batch Run
// passes its options through, a Pool overlays the JobSpec on its own.
func newRuntime(prog sched.Program, eng Engine, deques []deque.WorkDeque, opt sched.Options) *Runtime {
	rt := &Runtime{
		Prog:        prog,
		Costs:       opt.CostsOrDefault(),
		N:           len(deques),
		Deques:      deques,
		Eng:         eng,
		profile:     opt.Profile,
		tracer:      opt.Tracer,
		faults:      opt.Faults,
		stop:        &sched.Stop{},
		stealPolicy: StealPolicyByName(opt.StealPolicy),
		stealSeed:   stealSeed(opt),

		firstSolution: opt.FirstSolution,
	}
	if rt.tracer != nil {
		rt.tracer.Init(rt.N, int64(opt.MaxStolenNumOrDefault()))
	}
	rt.installHooks(deques)
	return rt
}

// installHooks points each deque's trace and fault hooks at this job.
// Hooks are keyed by position in deques — under a Pool the shard-local
// index — so what a recorder or a fault plan sees does not depend on which
// shard hosts the job.
func (rt *Runtime) installHooks(deques []deque.WorkDeque) {
	for i, d := range deques {
		if rt.tracer != nil {
			d.SetTrace(rt.tracer.DequeHook(i))
		}
		if hook := rt.faults.DequeHook(i); hook != nil {
			d.SetFailSteal(hook)
		}
	}
}

// Run executes prog under eng with the given options and engine name: the
// batch entry point, building deques and workers for exactly one job and
// tearing everything down afterwards. Resident serving goes through Pool.
// Options.Ctx, when non-nil, cancels the run cooperatively.
func Run(prog sched.Program, opt sched.Options, eng Engine, name string) (sched.Result, error) {
	n := opt.WorkersOrDefault()
	deques := make([]deque.WorkDeque, n)
	for i := range deques {
		deques[i] = newDeque(opt)
	}
	rt := newRuntime(prog, eng, deques, opt)
	plat := opt.PlatformOrDefault()
	if _, ok := plat.(*vtime.Real); ok {
		rt.wake = make(chan struct{}, n)
	}
	release := sched.WatchContext(opt.Ctx, rt.stop)
	defer release()

	workers := make([]*Worker, n)
	makespan := plat.Run(n, func(proc vtime.Proc) {
		w := &Worker{Walker: sched.Walker{Proc: proc}, Deque: rt.Deques[proc.ID()]}
		w.bind(rt, proc.ID())
		workers[w.ID] = w
		w.runJob(false)
	})
	res, err := rt.result(name, workers)
	res.Makespan = makespan
	return res, err
}
