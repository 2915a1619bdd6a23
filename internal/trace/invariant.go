// The invariant checker: replays one run's trace against the conservation
// laws that the THE-protocol deque and the deposit protocol promise, so a
// run that produced the right answer by accident (a duplicated steal and a
// lost pop cancelling out, a deposit landing in the wrong frame) still
// fails loudly.
//
// The catalogue (each violation names the law it breaks):
//
//	spawn-unique      every task seq is spawned exactly once.
//	conservation      every push of an ordinary task is consumed by exactly
//	                  one pop XOR one steal; nothing is consumed that was
//	                  not pushed; nothing is left in a deque at the end.
//	special-pinned    a special marker is never stolen and never popped by
//	                  the ordinary path; every push of it is matched by one
//	                  PopSpecial. Conversely only special markers go
//	                  through PopSpecial.
//	deposit-owed      per frame, deposits == steals crediting the frame
//	                  + ExpectDeposit registrations - cancellations: every
//	                  deposit was owed, and every debt was paid.
//	suspend-once      a frame suspends at most once, is finalised at most
//	                  once, and only a suspended frame is finalised.
//	                  Special markers do neither.
//	steal-symmetry    thief-side success/failure counts equal the deque
//	                  logs' success/failure counts.
//	need-task-fsm     per deque, in lock order: the failed-steal counter
//	                  increments on failure and resets on success, and
//	                  need_task is raised exactly when the counter passes
//	                  max_stolen_num and cleared exactly on success.
//	single-completion the run records exactly one root completion, its
//	                  value matches the reported result, and the result
//	                  matches the serial oracle.
//
// Two orthogonal relaxations compose with the catalogue, both fields of
// Laws. Truncated drops the "at least once" floors — an aborted run may
// abandon pushed tasks, owed deposits and suspended frames. K raises the
// "at most once" ceilings to k — a relaxed deque may hand the same entry to
// up to k consumers, so every exactly-once law becomes at-least-once,
// at-most-k-times. Neither relaxation ever forgives lost work, unowed
// deposits, wandering special markers, or a corrupted need_task FSM.
package trace

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"adaptivetc/internal/deque"
)

// KindSpecial mirrors wsrt.KindSpecial without importing wsrt (which
// imports this package). Pinned by a cross-package test in wsrt.
const KindSpecial = 2

// taskState accumulates one task seq's event counts. The zero value is a
// seq nothing was recorded about.
type taskState struct {
	kind        int64
	spawns      int
	pushes      int
	pops        int
	popSpecials int
	steals      int
	credits     int // steals that registered a deposit on this frame
	expects     int
	cancels     int
	deposits    int
	suspends    int
	finalizes   int
}

// maxViolations bounds the error report; a systemically broken run would
// otherwise produce one violation per task.
const maxViolations = 20

// replay is the accumulated event history of one run. It is scratch: a
// CheckLaws takes one from replayPool and gives it back, so a warm audit
// allocates nothing per task.
type replay struct {
	// tasks holds one state per seq the run's workers allocated. NextSeq
	// hands each worker the indices 1, 2, … in order, so worker w's seqs
	// are exactly tasks[base[w]:base[w+1]].
	tasks []taskState
	base  []int
	// strays are the seqs events name although no worker allocated them;
	// only a corrupt log has any.
	strays       map[uint64]*taskState
	completions  int
	completed    []int64 // values carried by OpComplete events
	rootDeposits int
	stealOKs     int
	stealFails   int
}

var replayPool = sync.Pool{New: func() any { return new(replay) }}

// task returns seq's counters.
func (rp *replay) task(seq uint64) *taskState {
	w, i := SeqWorker(seq), SeqIndex(seq)
	if w >= 0 && w+1 < len(rp.base) && i >= 1 && i <= uint64(rp.base[w+1]-rp.base[w]) {
		return &rp.tasks[rp.base[w]+int(i)-1]
	}
	t := rp.strays[seq]
	if t == nil {
		if rp.strays == nil {
			rp.strays = make(map[uint64]*taskState)
		}
		t = new(taskState)
		rp.strays[seq] = t
	}
	return t
}

// replayWorkers folds every worker log into rp's per-task counters.
func (r *Recorder) replayWorkers(rp *replay) {
	*rp = replay{tasks: rp.tasks[:0], base: append(rp.base[:0], 0), completed: rp.completed[:0]}
	for _, w := range r.workers {
		rp.base = append(rp.base, rp.base[len(rp.base)-1]+int(w.seq))
	}
	n := rp.base[len(rp.base)-1]
	rp.tasks = slices.Grow(rp.tasks, n)[:n]
	clear(rp.tasks)
	for _, w := range r.workers {
		for i := range w.evs {
			ev := &w.evs[i]
			switch ev.Op {
			case OpSpawn:
				t := rp.task(ev.Task)
				t.spawns++
				t.kind = ev.B
			case OpPush:
				rp.task(ev.Task).pushes++
			case OpPop:
				rp.task(ev.Task).pops++
			case OpPopEmpty:
				// No conservation effect: a failed pop consumes nothing.
			case OpPopSpecial:
				rp.task(ev.Task).popSpecials++
			case OpSteal:
				rp.task(ev.Task).steals++
				rp.task(uint64(ev.B)).credits++
				rp.stealOKs++
			case OpStealFail:
				rp.stealFails++
			case OpExpect:
				rp.task(ev.Task).expects++
			case OpCancel:
				rp.task(ev.Task).cancels++
			case OpDeposit:
				if ev.Task == 0 {
					rp.rootDeposits++
				} else {
					rp.task(ev.Task).deposits++
				}
			case OpFinalize:
				rp.task(ev.Task).finalizes++
			case OpSuspend:
				rp.task(ev.Task).suspends++
			case OpComplete:
				rp.completions++
				rp.completed = append(rp.completed, ev.A)
			}
		}
	}
}

// checkDeques replays each deque's lock-ordered log against the
// need_task/stolen_num finite state machine and the thief-side counts. These
// laws hold for truncated runs too: the FSM replay is per-event, and an
// abort cannot separate a deque transition from its worker-side record (no
// poll point lies between the deque hook and the worker's event append).
func (r *Recorder) checkDeques(rp *replay, addf func(string, ...any)) {
	dqOKs, dqFails := 0, 0
	for i, dl := range r.deques {
		counter, need := int64(0), false
		for j, ev := range dl.evs {
			switch ev.Op {
			case deque.TraceStealFail:
				dqFails++
				counter++
				if counter > r.maxStolenNum {
					need = true
				}
			case deque.TraceStealOK, deque.TraceStealSpecial:
				dqOKs++
				counter, need = 0, false
			}
			if ev.StolenNum != counter || ev.NeedTask != need {
				addf("need-task-fsm: deque %d event %d (%v): counter/flag = %d/%v, lock-order replay expects %d/%v (max_stolen_num=%d)",
					i, j, ev.Op, ev.StolenNum, ev.NeedTask, counter, need, r.maxStolenNum)
			}
		}
	}
	if rp.stealOKs != dqOKs {
		addf("steal-symmetry: workers recorded %d successful steals, deques recorded %d", rp.stealOKs, dqOKs)
	}
	if rp.stealFails != dqFails {
		addf("steal-symmetry: workers recorded %d failed steals, deques recorded %d", rp.stealFails, dqFails)
	}
}

// violationError joins the collected violations, or returns nil. The
// recorder's scope — the job/shard identity a multi-job pool stamps on each
// run — keys the verdict, so concurrent audits attribute failures to the
// job and worker group that produced them.
func (r *Recorder) violationError(violations []error) error {
	if len(violations) == 0 {
		return nil
	}
	if r.scope != "" {
		return fmt.Errorf("trace[%s]: %d invariant violation(s):\n%w", r.scope, len(violations), errors.Join(violations...))
	}
	return fmt.Errorf("trace: %d invariant violation(s):\n%w", len(violations), errors.Join(violations...))
}

// Laws selects which form of the catalogue a run is held to. The zero
// relaxations — K ≤ 1, Truncated false — are the strict laws of a run that
// finished on a THE deque.
type Laws struct {
	// Final is the run's reported result and Want the serial oracle's.
	// Both are ignored when Truncated: an aborted run reports no value.
	Final, Want int64
	// K is the bounded-multiplicity allowance: every "exactly once" law
	// relaxes to "at least once, at most K times", the shape a relaxed
	// deque (Castañeda & Piña) is allowed to bend the protocol into.
	// K < 1 means 1. What K relaxes: spawn-unique (a re-extracted frame
	// re-runs its spawn), conservation (a push may be consumed up to K
	// times), deposit-owed (each duplicated steal duplicates its credit's
	// deposit), suspend-once, single-completion and the special-marker
	// PopSpecial matching. What K does NOT relax: consumption without a
	// push, payment without a debt, markers leaving through the steal or
	// ordinary-pop path, the per-deque need_task FSM replay and
	// steal-symmetry — losing work or corrupting the starvation signal is
	// a violation at any multiplicity.
	K int
	// Truncated holds the trace of an aborted run — cancelled, timed out,
	// failed, or a first-solution search whose losers were unwound — to
	// the laws that survive truncation. An abort unwinds workers at
	// arbitrary poll points, so the equalities relax to inequalities: a
	// pushed task may never be consumed (it was drained by the pool's
	// deque reset, which is untraced), an owed deposit may never be paid,
	// a suspended frame may never be finalised, and the run root completes
	// at most once. What must still hold exactly: task identities are
	// unique, nothing is consumed that was not pushed, nothing is paid
	// that was not owed, special markers never leave through the ordinary
	// path, and the steal/need_task bookkeeping stays consistent event by
	// event (aborts happen only at poll points, never between a deque
	// transition and its worker-side record).
	Truncated bool
}

// Check holds a finished run to the strict laws: CheckLaws with no
// relaxation. finalValue is the run's reported result; wantValue is the
// serial oracle.
func (r *Recorder) Check(finalValue, wantValue int64) error {
	return r.CheckLaws(Laws{Final: finalValue, Want: wantValue})
}

// CheckLaws replays the recorded run and returns an error describing every
// violated invariant (capped), or nil if the run upheld all of l.
func (r *Recorder) CheckLaws(l Laws) error {
	k := max(l.K, 1)
	var violations []error
	addf := func(format string, args ...any) {
		if len(violations) < maxViolations {
			violations = append(violations, fmt.Errorf(format, args...))
		}
	}

	rp := replayPool.Get().(*replay)
	defer replayPool.Put(rp)
	r.replayWorkers(rp)

	// The floors truncation drops: a value, and at least one completion
	// carrying it.
	if !l.Truncated {
		if l.Final != l.Want {
			addf("single-completion: run value %d != serial value %d", l.Final, l.Want)
		}
		if rp.completions < 1 {
			addf("single-completion: no root completion recorded, want 1..%d", k)
		}
		for _, v := range rp.completed {
			if v != l.Final {
				addf("single-completion: completion event carries %d, run reported %d", v, l.Final)
			}
		}
	}
	if rp.completions > k {
		addf("single-completion: %d root completions recorded, want at most %d", rp.completions, k)
	}
	if rp.rootDeposits > k {
		addf("single-completion: %d deposits to the run root, want at most %d", rp.rootDeposits, k)
	}

	r.checkTasks(rp, addf, k, l.Truncated)
	r.checkDeques(rp, addf)
	return r.violationError(violations)
}

// checkTasks replays the per-task laws. k is the multiplicity allowance;
// truncated drops the "at least once" floors (an aborted run may abandon
// work at any point).
func (r *Recorder) checkTasks(rp *replay, addf func(string, ...any), k int, truncated bool) {
	for w := range r.workers {
		for i := rp.base[w]; i < rp.base[w+1]; i++ {
			// A seq that was allocated but appears in no event breaks no law.
			if t := &rp.tasks[i]; *t != (taskState{}) {
				checkTask(packSeq(w, uint64(i-rp.base[w]+1)), t, addf, k, truncated)
			}
		}
	}
	for seq, t := range rp.strays {
		checkTask(seq, t, addf, k, truncated)
	}
}

// seqName formats a task seq only if a violation prints it: a clean run
// names nothing.
type seqName uint64

func (s seqName) String() string { return FormatSeq(uint64(s)) }

func checkTask(seq uint64, t *taskState, addf func(string, ...any), k int, truncated bool) {
	name := seqName(seq)
	if t.spawns < 1 || t.spawns > k {
		addf("spawn-unique: task %s spawned %d times, want 1..%d", name, t.spawns, k)
		return // counts below are meaningless without a unique identity
	}
	if t.kind == KindSpecial {
		if t.steals != 0 {
			addf("special-pinned: special marker %s was stolen %d times", name, t.steals)
		}
		if t.pops != 0 {
			addf("special-pinned: special marker %s left through the ordinary pop %d times", name, t.pops)
		}
		if t.popSpecials > k*t.pushes || (!truncated && t.popSpecials < t.pushes) {
			addf("special-pinned: special marker %s pushed %d times but removed by PopSpecial %d times (multiplicity %d)",
				name, t.pushes, t.popSpecials, k)
		}
		if t.suspends != 0 || t.finalizes != 0 {
			addf("suspend-once: special marker %s suspends=%d finalizes=%d, want 0/0", name, t.suspends, t.finalizes)
		}
	} else {
		if t.popSpecials != 0 {
			addf("special-pinned: ordinary task %s removed via PopSpecial %d times", name, t.popSpecials)
		}
		// Consumption without a push is a hard violation at any k
		// (k * 0 pushes is still 0); losing a push is only legal on a
		// truncated run.
		if consumed := t.pops + t.steals; consumed > k*t.pushes || (!truncated && consumed < t.pushes) {
			addf("conservation: task %s pushed %d times, consumed %d times (%d pops + %d steals, multiplicity %d)",
				name, t.pushes, consumed, t.pops, t.steals, k)
		}
		if t.suspends > k {
			addf("suspend-once: task %s suspended %d times, want at most %d", name, t.suspends, k)
		}
		if t.finalizes > t.suspends {
			addf("suspend-once: task %s finalised %d times but suspended %d times", name, t.finalizes, t.suspends)
		}
	}
	owed := t.credits + t.expects - t.cancels
	hi := k * owed
	if hi < owed {
		hi = owed // owed < 0 is itself nonsense; let the bound report it
	}
	if t.deposits > hi || (!truncated && t.deposits < owed) {
		addf("deposit-owed: task %s received %d deposits but was owed %d (%d steal credits + %d expects - %d cancels, multiplicity %d)",
			name, t.deposits, owed, t.credits, t.expects, t.cancels, k)
	}
}
