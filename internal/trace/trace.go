// Package trace is the scheduler observability layer: a structured,
// per-worker event log of everything the work-stealing runtime does to a
// task — spawn, push, pop, steal, special-task skip-over, deposit,
// finalisation — plus a per-deque log of the need_task signalling FSM,
// recorded under the owner lock in exactly the order the lock serialises
// the transitions.
//
// The layer is built to be free when it is off: every recording site in the
// hot path is a single nil check (the runtime's Worker holds a nil log
// pointer unless Options.Tracer was set), and the deque's thief-side hook
// is a nil function pointer. When it is on, events go to per-worker buffers
// with no cross-worker synchronisation — a worker appends only to its own
// log, a deque appends only under its own lock — and the buffers themselves
// are recycled through a pool so that repeated traced runs (the invariant
// stress harness, the fuzzer) settle into zero steady-state allocation.
//
// Two consumers exist:
//
//   - WriteChrome renders the merged log as Chrome trace_event JSON
//     (chrome://tracing, Perfetto), one track per worker.
//   - Check replays the log against the conservation laws of the THE
//     protocol and the deposit protocol (see invariant.go) — the tool that
//     turns "the run produced the right number" into "every task was
//     consumed exactly once and every deposit was owed".
//
// Event timestamps are the worker's virtual nanoseconds under Sim: per
// worker they are monotone; across workers they are comparable but carry no
// ordering guarantee, which is why the FSM invariant is checked against the
// lock-ordered deque log rather than against timestamps. On the wall clock
// (Real) every event is stamped 0: the checker never reads a timestamp, the
// Chrome export runs on the Sim, and a clock read per event would be most
// of what a traced Real run costs.
package trace

import (
	"fmt"
	"sync"

	"adaptivetc/internal/deque"
)

// Op is the kind of a worker-side event.
type Op uint8

const (
	// OpSpawn: a task frame was created. Task=new seq, A=tree depth, B=kind.
	OpSpawn Op = iota + 1
	// OpPush: the owner pushed Task on its deque.
	OpPush
	// OpPop: the owner popped Task from its deque tail.
	OpPop
	// OpPopEmpty: the owner's pop failed (empty, or the tail was stolen).
	OpPopEmpty
	// OpPopSpecial: the owner removed special marker Task; A=1 if a thief
	// had skipped over the marker and taken a child in the meantime.
	OpPopSpecial
	// OpSteal: a thief took Task from deque A; the theft registered one
	// expected deposit on frame B (Task itself for a continuation, its
	// parent for a help-first child).
	OpSteal
	// OpStealFail: a steal attempt on deque A failed.
	OpStealFail
	// OpExpect: one future deposit was registered on Task outside the
	// steal path (special-task child theft, help-first inline guard).
	OpExpect
	// OpCancel: one OpExpect registration on Task was withdrawn.
	OpCancel
	// OpDeposit: value A was deposited into frame Task (Task=0: the run's
	// root result).
	OpDeposit
	// OpFinalize: a deposit drained Task's pending count; the depositor
	// finalised the suspended frame with total A.
	OpFinalize
	// OpSuspend: the final executor reached Task's sync point with deposits
	// outstanding and abandoned the frame.
	OpSuspend
	// OpComplete: the run's root value A was recorded.
	OpComplete
)

var opNames = [...]string{
	OpSpawn:      "spawn",
	OpPush:       "push",
	OpPop:        "pop",
	OpPopEmpty:   "pop-empty",
	OpPopSpecial: "pop-special",
	OpSteal:      "steal",
	OpStealFail:  "steal-fail",
	OpExpect:     "expect-deposit",
	OpCancel:     "cancel-deposit",
	OpDeposit:    "deposit",
	OpFinalize:   "finalize",
	OpSuspend:    "suspend",
	OpComplete:   "complete",
}

// String returns the event name used in reports and Chrome traces.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one worker-side scheduler event. The acting worker is implied by
// which WorkerLog holds the event. Task identifies the frame the event is
// about (0 = none / the run root); A and B are per-Op operands documented
// on the Op constants.
type Event struct {
	TS   int64 // virtual nanoseconds under Sim; 0 on the wall clock
	Task uint64
	A, B int64
	Op   Op
}

// DequeEvent is one thief-side transition of a deque's steal/need_task FSM,
// with the post-transition counter and flag. Events of one deque are
// recorded under the owner lock, so their order is the true serialisation
// order of the transitions.
type DequeEvent struct {
	Op        deque.TraceOp
	StolenNum int64
	NeedTask  bool
}

// seqWorkerShift packs the owning worker into the high bits of a task seq,
// so every worker allocates globally-unique task identities with a plain
// local counter. 2^40 spawns per worker is out of reach for any run that
// fits in memory.
const seqWorkerShift = 40

// packSeq is the identity of worker's index-th spawn (index counts from 1).
func packSeq(worker int, index uint64) uint64 { return uint64(worker+1)<<seqWorkerShift | index }

// SeqWorker recovers the worker that allocated seq.
func SeqWorker(seq uint64) int { return int(seq>>seqWorkerShift) - 1 }

// SeqIndex recovers the per-worker spawn index of seq.
func SeqIndex(seq uint64) uint64 { return seq & (1<<seqWorkerShift - 1) }

// FormatSeq renders a task seq as "w<worker>#<index>" for reports.
func FormatSeq(seq uint64) string {
	if seq == 0 {
		return "root"
	}
	return fmt.Sprintf("w%d#%d", SeqWorker(seq), SeqIndex(seq))
}

// WorkerLog is one worker's event buffer and task-seq allocator. It is
// owned by exactly one worker goroutine during a run; the Recorder reads it
// only after the run has joined.
type WorkerLog struct {
	id  int
	seq uint64
	evs []Event
}

// Add appends one event. The caller is the owning worker.
func (l *WorkerLog) Add(ts int64, op Op, task uint64, a, b int64) {
	l.evs = append(l.evs, Event{TS: ts, Op: op, Task: task, A: a, B: b})
}

// NextSeq allocates a fresh globally-unique task identity.
func (l *WorkerLog) NextSeq() uint64 {
	l.seq++
	return packSeq(l.id, l.seq)
}

// Events returns the recorded events (read-only; valid until the next Init
// or Release).
func (l *WorkerLog) Events() []Event { return l.evs }

// DequeLog is one deque's FSM transition buffer, appended to under the
// deque's owner lock.
type DequeLog struct {
	evs []DequeEvent
}

// Events returns the recorded transitions in lock order.
func (l *DequeLog) Events() []DequeEvent { return l.evs }

// Log pools. Traced stress runs create and drop many short logs; the pools
// keep the logs and their backing arrays alive between runs so a warm
// Init/record/Check/Release cycle allocates nothing but what the run's own
// high-water mark demands.
var (
	workerLogPool = sync.Pool{New: func() any { return &WorkerLog{evs: make([]Event, 0, 1024)} }}
	dequeLogPool  = sync.Pool{New: func() any { return &DequeLog{evs: make([]DequeEvent, 0, 256)} }}
)

// Recorder collects one run's trace. Create it once, point Options.Tracer
// at it, and the work-stealing runtime calls Init with the run's geometry;
// after the run, Check and WriteChrome consume the log, and Release returns
// the buffers to the pool. A Recorder may be reused for any number of
// sequential runs; each Init discards the previous run's events.
type Recorder struct {
	maxStolenNum int64
	scope        string
	workers      []*WorkerLog
	deques       []*DequeLog
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Init prepares the recorder for a run with n workers (and n deques) and
// the given max_stolen_num threshold, recycling buffers from the pool. The
// work-stealing runtime calls it at run start.
func (r *Recorder) Init(n int, maxStolenNum int64) {
	r.Release()
	r.maxStolenNum = maxStolenNum
	r.scope = ""
	r.workers = r.workers[:0]
	r.deques = r.deques[:0]
	for i := 0; i < n; i++ {
		w := workerLogPool.Get().(*WorkerLog)
		w.id, w.seq, w.evs = i, 0, w.evs[:0]
		r.workers = append(r.workers, w)
		d := dequeLogPool.Get().(*DequeLog)
		d.evs = d.evs[:0]
		r.deques = append(r.deques, d)
	}
}

// Release returns the recorder's buffers to the pool. The logs must not be
// read afterwards. Safe to call on an empty recorder.
func (r *Recorder) Release() {
	for i, w := range r.workers {
		workerLogPool.Put(w)
		r.workers[i] = nil
	}
	for i, d := range r.deques {
		dequeLogPool.Put(d)
		r.deques[i] = nil
	}
	r.workers = r.workers[:0]
	r.deques = r.deques[:0]
}

// SetScope labels the current run for reports: the invariant checker
// prefixes every violation with it, so when a sharded multi-job pool audits
// several concurrent jobs the verdicts are keyed by the job and worker
// shard that produced them. Set it after Init (which clears the previous
// run's scope); the empty string (the default) leaves reports unprefixed.
func (r *Recorder) SetScope(scope string) { r.scope = scope }

// Workers returns the number of worker logs of the current run.
func (r *Recorder) Workers() int { return len(r.workers) }

// WorkerLog returns worker i's log for the runtime to record into.
func (r *Recorder) WorkerLog(i int) *WorkerLog { return r.workers[i] }

// DequeLog returns deque i's FSM log.
func (r *Recorder) DequeLog(i int) *DequeLog { return r.deques[i] }

// DequeHook returns the thief-side observer to install on deque i with
// SetTrace. The returned function is called under the deque's owner lock.
func (r *Recorder) DequeHook(i int) deque.TraceFn {
	l := r.deques[i]
	return func(op deque.TraceOp, stolenNum int64, needTask bool) {
		l.evs = append(l.evs, DequeEvent{Op: op, StolenNum: stolenNum, NeedTask: needTask})
	}
}

// EventCount returns the total number of worker-side events recorded.
func (r *Recorder) EventCount() int {
	n := 0
	for _, w := range r.workers {
		n += len(w.evs)
	}
	return n
}
