// Package wsrt is the shared work-stealing runtime underneath the Cilk,
// Cilk-SYNCHED, cutoff and AdaptiveTC engines: resumable task frames, the
// result-deposit protocol that replaces Cilk's closed/ready queues, the
// spawn loop those engines are configurations of (Fast), the thief loop, and
// workspace-copy bookkeeping.
//
// # Frames and the deposit protocol
//
// A Frame is the saved continuation of one node of the computation: the
// workspace, the depth, the index of the next move to try (the saved
// program counter of the paper's slow version) and the partial sum of
// completed children. The executor of a node pushes its frame before diving
// into a child and pops it on the way out; a successful pop means nothing
// was stolen and the child's value was returned on the Go stack for free.
//
// When a thief steals a frame it becomes the frame's executor and resumes
// the move loop from Frame.PC. The old executor discovers the theft through
// a failed pop; at that point exactly one child value is in flight (the
// subtree it just finished), so it deposits that value into the frame and
// unwinds without touching shallower frames (they were stolen even earlier —
// thieves take from the head — and each of their in-flight children is a
// frame-bearing subtree that will deposit on its own completion).
//
// Pending counts the deposits a frame still expects: exactly one per steal
// of the frame, incremented under the victim's deque lock inside the steal
// (deque.StealAware), which orders it before the old executor's pop
// failure. The final executor that reaches the sync point with Pending > 0
// suspends the frame (the worker goes back to stealing, as in the paper's
// "Reaching a synchronization point" rule); the deposit that drains Pending
// to zero finalises the frame and cascades its total into the parent — the
// paper's "Terminate" rule (3).
//
// Special-task frames never suspend: their executor waits in
// sync_specialtask (see the adaptive engine), so depositors never finalise
// them; Waited marks that difference.
package wsrt

import (
	"sync"

	"adaptivetc/internal/sched"
)

// Kind tags which code version a stolen frame should resume as.
type Kind uint8

const (
	// KindFast resumes as the fast version (or check beyond the cutoff).
	KindFast Kind = iota
	// KindFast2 resumes as the fast_2 version (or sequence beyond 2×cutoff).
	KindFast2
	// KindSpecial marks an AdaptiveTC special task: a transition marker
	// that can never be stolen and never suspends.
	KindSpecial
	// KindChild marks an unstarted help-first child task: the frame holds
	// a node that has not begun executing (PC is meaningless until it is
	// started). Its theft is credited to the parent's join, because the
	// child's value — unlike a continuation's — belongs to the parent.
	KindChild
)

// Frame is a resumable task continuation.
type Frame struct {
	// Immutable after creation.
	Parent *Frame
	// Depth is the node's depth in the program's search tree — what gets
	// passed to Program calls.
	Depth int
	// Rel is the cutoff-relative depth. It usually equals Depth, but an
	// AdaptiveTC special task resets its children's Rel to 0 ("the depth
	// of the special task's child will be set to 0") while their tree
	// Depth keeps counting.
	Rel  int
	Kind Kind

	// Continuation state, written only by the current executor while the
	// frame is not in any deque.
	WS  sched.Workspace
	PC  int
	Sum int64

	// seq is the frame's trace identity, assigned by NewFrame only when the
	// run is traced (recycled frames get a fresh seq per task, so a seq
	// names one task, not one allocation). Zero when tracing is off.
	seq uint64

	// Join state, guarded by mu.
	mu        sync.Mutex
	extra     int64 // deposited child values
	pending   int   // deposits still expected; may dip negative transiently
	suspended bool  // final executor reached sync with pending > 0
	waited    bool  // special task: executor polls instead of suspending
}

// Special implements deque.Entry.
func (f *Frame) Special() bool { return f.Kind == KindSpecial }

// reset re-initialises a recycled frame for a new task. Fields are assigned
// individually (rather than by struct literal) so the mutex is not copied.
// The previous owner's last access was under mu (the finalising deposit or
// the completing Sync), which happens-before the recycler's acquisition of
// the frame, so the plain writes here are ordered after all old accesses.
func (f *Frame) reset(parent *Frame, ws sched.Workspace, depth, rel int, kind Kind) {
	f.Parent = parent
	f.Depth = depth
	f.Rel = rel
	f.Kind = kind
	f.WS = ws
	f.PC = 0
	f.Sum = 0
	f.extra = 0
	f.pending = 0
	f.suspended = false
	f.waited = false
}

// OnStolen implements deque.StealAware; the deque calls it under the
// victim's lock when the frame is successfully stolen. A stolen
// continuation owes a deposit to itself (the victim's in-flight child); a
// stolen help-first child owes its whole value to its parent instead.
func (f *Frame) OnStolen() {
	target := f
	if f.Kind == KindChild {
		target = f.Parent
	}
	target.mu.Lock()
	target.pending++
	target.mu.Unlock()
}

// Start converts a help-first child frame into an ordinary running frame:
// once an executor picks it up, any later theft of the frame (as a pushed
// continuation) follows the normal continuation accounting. It must be
// called before the frame is ever re-pushed.
func (f *Frame) Start() {
	if f.Kind == KindChild {
		f.Kind = KindFast
	}
}

// ExpectDeposit registers one future deposit outside the steal path. The
// AdaptiveTC check version uses it when pop_specialtask reports that a
// special task's child was taken: the child's subtree will deposit its
// total here instead of returning it inline. The help-first engine uses
// it *before* running a child inline, cancelling afterwards if the child
// completed — registering only after a child detaches would race with the
// child's finaliser.
func (f *Frame) ExpectDeposit() {
	f.mu.Lock()
	f.pending++
	f.mu.Unlock()
}

// CancelExpected withdraws one ExpectDeposit registration (the guarded
// outcome did not happen). It never finalises the frame: only real
// deposits can be the last word.
func (f *Frame) CancelExpected() {
	f.mu.Lock()
	f.pending--
	f.mu.Unlock()
}

// SyncOutcome is what the final executor observes at the sync point.
type SyncOutcome int

const (
	// SyncComplete: no outstanding children; the frame's total is final.
	SyncComplete SyncOutcome = iota
	// SyncSuspended: outstanding children; the frame was suspended and the
	// last depositor will finalise it. The executor must abandon it.
	SyncSuspended
)

// Sync is called by the frame's final executor at the synchronisation
// point with its local partial sum. On SyncComplete, total is the frame's
// final value. On SyncSuspended the frame now belongs to the depositors.
func (f *Frame) Sync(localSum int64) (total int64, outcome SyncOutcome) {
	f.mu.Lock()
	if f.pending > 0 {
		f.Sum = localSum
		f.suspended = true
		f.mu.Unlock()
		return 0, SyncSuspended
	}
	total = localSum + f.extra
	f.mu.Unlock()
	return total, SyncComplete
}

// DrainedAfter reports, for a waiting special task, whether all expected
// deposits have arrived, and if so the frame total given the executor's
// local sum. The executor must have finished registering ExpectDeposit
// calls before the first DrainedAfter (all increments precede the wait).
func (f *Frame) DrainedAfter(localSum int64) (total int64, done bool) {
	f.mu.Lock()
	if f.pending > 0 {
		f.mu.Unlock()
		return 0, false
	}
	total = localSum + f.extra
	f.mu.Unlock()
	return total, true
}

// deposit adds v to the frame and reports whether the caller must finalise
// it (it was suspended and this was the last expected deposit). When it
// returns true the caller owns the frame's total.
func (f *Frame) deposit(v int64) (total int64, finalise bool) {
	f.mu.Lock()
	if f.pending <= 0 && !f.waited {
		// Every deposit into an ordinary frame is pre-registered by
		// OnStolen under the victim's deque lock, which the failing pop
		// orders before us; pending < 1 here means a pop failed without a
		// matching steal. (Special tasks are exempt: their ExpectDeposit
		// races benignly with an early finaliser.)
		f.mu.Unlock()
		panic("wsrt: deposit into frame with no registered theft (THE protocol violation?)")
	}
	f.extra += v
	f.pending--
	if f.suspended && !f.waited && f.pending == 0 {
		total = f.Sum + f.extra
		f.mu.Unlock()
		return total, true
	}
	f.mu.Unlock()
	return 0, false
}
