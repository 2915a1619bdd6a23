// Package deque implements the work-stealing double-ended queue used by the
// Cilk, cutoff and AdaptiveTC engines, following the simplified THE protocol
// of the paper's Figure 3: the owner pushes and pops at the tail T without a
// lock on the fast path, thieves take from the head H under the owner's
// lock, and the owner falls back to the lock when H and T collide.
//
// The deque also carries the paper's starvation signal: a thief that fails
// to steal increments the victim's stolen_num, and once it passes
// max_stolen_num the victim's need_task flag is raised; a successful steal
// clears both (Figure 3(d)/(e)).
//
// Special tasks (the AdaptiveTC transition markers) can never be stolen.
// When the head of a deque is a special task a thief executes
// steal_specialtask, which skips over the marker and takes the special
// task's child instead (H += 2); the owner's PopSpecial detects the theft by
// finding H beyond T and re-normalises H = T, keeping the never-stealable
// marker logically at the head (Figure 3(b)/(e)).
package deque

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Entry is an element of a deque. Engines store task frames; the deque only
// needs to know whether an entry is a special task.
type Entry interface {
	// Special reports whether this entry is an AdaptiveTC special task.
	Special() bool
}

// WorkDeque is the owner/thief operation set the scheduling engines need.
// Deque implements it directly (Growable is a Deque without a capacity
// limit); Relaxed lightens the owner's side.
type WorkDeque interface {
	// Push appends at the tail (owner only); false reports overflow.
	Push(Entry) bool
	// Pop removes the tail entry (owner only).
	Pop() (Entry, bool)
	// PopSpecial removes the owner's special marker, reporting child theft.
	PopSpecial() bool
	// Steal takes from the head on behalf of a thief.
	Steal() (Entry, bool)
	// StealN takes up to len(dst) entries from the head under one critical
	// section on behalf of a thief, returning how many were taken.
	StealN(dst []Entry) int
	// FailEmpty fails a thief's attempt on an empty deque without the owner
	// lock, reporting whether it did; false leaves the attempt to StealN.
	// Exact only where no owner or other thief runs meanwhile (the Sim).
	FailEmpty() bool
	// NeedTask reports the paper's need_task starvation flag.
	NeedTask() bool
	// SetNeedTask overrides the flag (tests, ablations).
	SetNeedTask(bool)
	// StolenNum returns the failed-steal counter.
	StolenNum() int64
	// SetTrace installs fn as the thief-side transition observer (nil
	// disables tracing; the default).
	SetTrace(fn TraceFn)
	// SetFailSteal installs fn as the fault-injection gate of the steal
	// path (nil disables; the default). See Deque.SetFailSteal.
	SetFailSteal(fn func() bool)
	// Reset empties the deque and clears the starvation signal and the
	// high-water mark, readying it for the next job of a resident pool.
	// The caller must guarantee quiescence: no concurrent owner or thief.
	Reset()
	// MaxDepth returns the owner-observed size high-water mark.
	MaxDepth() int64
	// Cap returns the (current) capacity.
	Cap() int
	// Size returns the owner-visible entry count.
	Size() int
	// Stealable reports whether a steal attempt could take an entry now.
	Stealable() bool
}

// TraceOp labels a thief-side deque transition for the optional trace
// hook.
type TraceOp uint8

const (
	// TraceStealOK: a plain head steal succeeded; the failed-steal counter
	// and the need_task flag were cleared (Figure 3(d)).
	TraceStealOK TraceOp = iota
	// TraceStealSpecial: the head was a special marker, so the thief
	// skipped over it and took the marker's child instead (Figure 3(e)).
	TraceStealSpecial
	// TraceStealFail: a steal attempt failed; the counter was bumped and
	// need_task possibly raised.
	TraceStealFail
)

// String names the transition for reports.
func (op TraceOp) String() string {
	switch op {
	case TraceStealOK:
		return "steal-ok"
	case TraceStealSpecial:
		return "steal-special"
	case TraceStealFail:
		return "steal-fail"
	}
	return "steal-?"
}

// TraceFn observes thief-side transitions of the steal/need_task FSM. It is
// called while the thief holds the owner lock, so for one deque the calls
// are totally ordered — the order the FSM actually serialised its
// transitions in. stolenNum and needTask are the post-transition counter
// and flag. The function must be fast and must not call back into the
// deque.
type TraceFn func(op TraceOp, stolenNum int64, needTask bool)

// StealAware entries are notified of a successful steal while the thief
// still holds the victim's lock. The work-stealing runtime uses this to
// register the deposit the old executor will make after its failed pop:
// the pop's failure path takes the same lock, so the notification is
// ordered before the deposit.
type StealAware interface {
	OnStolen()
}

// Deque is a THE-protocol work-stealing deque with a capacity limit. Its
// ring starts small and doubles under the owner lock until it covers the
// limit, so a run pays for the slots it actually pushes into. The zero
// value is not usable; call New (or NewGrowable for a deque without a
// limit).
type Deque struct {
	mu sync.Mutex // the paper's worker.L
	h  atomic.Int64
	t  atomic.Int64

	// buf is the ring, a power of two long, and mask its length minus one.
	// Slots are plain memory: the owner writes a slot before the atomic T
	// store that publishes it, and a thief reads a slot only after its claim
	// has seen that store, so the T publication orders every slot access
	// that could conflict (DESIGN §5.3). buf, mask and room change only in
	// growLocked, under mu, which thieves hold whenever they read them.
	buf  []Entry
	mask int64
	// room is how many entries Push accepts before it must grow the ring or
	// report overflow: min(len(buf), limit) less the two slots of slack.
	room int64
	// limit is the configured capacity: Push reports overflow once limit-2
	// entries are live. noLimit makes the deque growable.
	limit int64

	stolenNum    atomic.Int64
	needTask     atomic.Bool
	maxStolenNum int64

	// maxDepth is the owner-observed high-water mark of T-H.
	maxDepth int64

	// loneMarkerT is the T at which a steal last failed on a special marker
	// with no child above it, or 0. The marker leaves only through
	// PopSpecial, which clears it, so while T still equals it and one entry
	// is in the deque, that entry is the marker (Stealable).
	loneMarkerT atomic.Int64

	// trace, when non-nil, observes thief-side FSM transitions under the
	// owner lock. The owner's Push/Pop fast path never consults it.
	trace TraceFn

	// failSteal, when non-nil, is consulted at the top of every steal
	// attempt under the owner lock; returning true forces the attempt to
	// fail through the normal stolen_num/need_task path. The owner's
	// Push/Pop fast path never consults it.
	failSteal func() bool
}

// initialRing is the ring a deque starts with when its capacity is larger;
// a smaller capacity starts with the power of two that covers it. A spawn
// loop's deque rarely holds more than its recursion depth, so most runs
// never grow past it.
const initialRing = 64

// noLimit is the limit of a deque that grows without bound.
const noLimit = math.MaxInt64

// New returns a deque with the given capacity and max_stolen_num threshold.
func New(capacity, maxStolenNum int) *Deque {
	if capacity <= 0 {
		capacity = 8192
	}
	return newDeque(capacity, int64(capacity), maxStolenNum)
}

// newDeque returns a deque with the given limit whose ring is the power of
// two covering size, but at most initialRing.
func newDeque(size int, limit int64, maxStolenNum int) *Deque {
	if maxStolenNum <= 0 {
		maxStolenNum = 20
	}
	ring := min(int64(1)<<bits.Len(uint(size-1)), initialRing)
	return &Deque{
		buf:          make([]Entry, ring),
		mask:         ring - 1,
		room:         min(ring, limit) - 2,
		limit:        limit,
		maxStolenNum: int64(maxStolenNum),
	}
}

// Cap returns the configured capacity, or the current ring size of a deque
// without a limit. Only the owner may call it.
func (d *Deque) Cap() int {
	if d.limit == noLimit {
		return len(d.buf)
	}
	return int(d.limit)
}

// Size returns the current number of entries as seen by the owner. It is a
// snapshot; concurrent steals may shrink it immediately.
func (d *Deque) Size() int {
	n := d.t.Load() - d.h.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Stealable reports whether a steal attempt could take an entry now. It is
// false for an empty deque, and for one whose only entry is a special marker
// on which a steal has already failed ("the marker has no child in the
// deque"): a lone marker no thief has tried yet reads as stealable. Like
// Size it is a snapshot, and it takes no lock.
func (d *Deque) Stealable() bool {
	t := d.t.Load()
	n := t - d.h.Load()
	return n > 1 || n == 1 && d.loneMarkerT.Load() != t
}

// MaxDepth returns the owner-observed high-water mark of the deque size.
func (d *Deque) MaxDepth() int64 { return d.maxDepth }

// NeedTask reports whether starving thieves have raised the need_task flag.
func (d *Deque) NeedTask() bool { return d.needTask.Load() }

// SetNeedTask overrides the flag (used by tests and ablations).
func (d *Deque) SetNeedTask(v bool) { d.needTask.Store(v) }

// StolenNum returns the current failed-steal counter.
func (d *Deque) StolenNum() int64 { return d.stolenNum.Load() }

// SetTrace installs fn as the thief-side transition observer (nil
// disables). Install before workers start; the steal path reads it without
// synchronisation beyond the owner lock.
func (d *Deque) SetTrace(fn TraceFn) { d.trace = fn }

// SetFailSteal installs fn as the fault-injection gate of the steal path
// (nil disables; the default). When fn returns true the attempt fails
// before any claim is published, going through the same
// stolen_num/need_task bookkeeping as an organic failure — the injected
// contention is indistinguishable from losing a real race, which is what
// keeps the starvation-signalling FSM and its trace invariants honest
// under chaos. fn runs under the owner lock, so its state needs no other
// synchronisation. Install before workers start (or between jobs of a
// resident pool).
func (d *Deque) SetFailSteal(fn func() bool) { d.failSteal = fn }

// Push appends e at the tail. Only the owner may call it. It reports false
// once the deque holds limit-2 entries (the capacity is fixed, as in Cilk;
// the paper calls out overflow-proneness explicitly, so we surface it rather
// than grow past it). Below the limit a full ring doubles under the owner
// lock.
//
// Two slots of slack are reserved: a thief publishes its claim (H move)
// before reading the claimed slot, and steal_specialtask claims two slots
// at once, so without the slack a burst of pushes could lap the ring and
// overwrite a claimed-but-unread slot.
func (d *Deque) Push(e Entry) bool {
	t := d.t.Load()
	h := d.h.Load()
	if t-h >= d.room {
		if int64(len(d.buf)) >= d.limit {
			return false
		}
		d.mu.Lock()
		d.growLocked()
		d.mu.Unlock()
	}
	if testMidPush != nil {
		testMidPush(d)
	}
	d.buf[t&d.mask] = e
	d.t.Store(t + 1) // release: publishes the slot write to thieves
	// maxDepth: the h loaded at entry is stale by the time the entry is
	// published — thieves may have advanced H in between, so t+1-h would
	// over-count the high-water mark. The stale depth is an upper bound on
	// the fresh one (H only grows), so it serves as a cheap pre-filter and
	// H is reloaded only when the mark could actually rise; the fresh value
	// can at worst under-count by steals racing the reload, which keeps the
	// recorded mark within what the owner ever truly co-held.
	if t+1-h > d.maxDepth {
		if depth := t + 1 - d.h.Load(); depth > d.maxDepth {
			d.maxDepth = depth
		}
	}
	return true
}

// testMidPush, when non-nil, is called by Push between its entry loads of
// H/T and the buffer store. Tests use it to interleave a concurrent steal
// deterministically inside the push window; it must stay nil outside tests
// (the hot path pays one predicted branch for it).
var testMidPush func(*Deque)

// Pop removes and returns the tail entry. Only the owner may call it.
// It returns (nil, false) when the deque is empty or the tail entry has
// been stolen; in that case the deque has been re-normalised to empty.
// This is Figure 3(a) with the failure path additionally restoring T = H so
// that subsequent pushes are well defined.
func (d *Deque) Pop() (Entry, bool) {
	t := d.t.Load() - 1
	d.t.Store(t) // the MEMBAR of the figure: sequentially consistent store
	h := d.h.Load()
	if h > t {
		d.t.Store(t + 1)
		d.mu.Lock()
		t = d.t.Load() - 1
		d.t.Store(t)
		h = d.h.Load()
		if h > t {
			d.t.Store(h) // normalise empty
			d.mu.Unlock()
			return nil, false
		}
		d.mu.Unlock()
	}
	return d.take(t), true
}

// take empties slot i and returns its entry: the owner's read of a slot its
// Pop won. Clearing it lets the collector have the entry once it is done.
func (d *Deque) take(i int64) Entry {
	slot := &d.buf[i&d.mask]
	e := *slot
	*slot = nil
	return e
}

// PopSpecial removes the special task the owner pushed at the tail and
// reports whether any of the special task's children were stolen in the
// meantime (Figure 3(b)). It returns false in the common case — the marker
// was still the only claim at the tail, so no thief skipped over it — and
// true when a thief's steal_specialtask carried H past the marker; in that
// case H is re-normalised to T so the never-stealable marker stays
// logically owned by the victim. The special entry is removed either way;
// there is no separate "found" result, because the owner only calls
// PopSpecial while its marker is the tail entry.
func (d *Deque) PopSpecial() (stolen bool) {
	d.mu.Lock()
	d.loneMarkerT.Store(0)
	t := d.t.Load() - 1
	d.t.Store(t)
	if d.h.Load() > t {
		d.h.Store(t) // re-normalise: the marker stays owned by the victim
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()
	return false
}

// Steal attempts to take the head entry on behalf of a thief: a batch of one
// (see StealN, which implements Figure 3(d) and (e) for every batch size).
func (d *Deque) Steal() (Entry, bool) {
	var dst [1]Entry
	if d.StealN(dst[:]) == 0 {
		return nil, false
	}
	return dst[0], true
}

// StealN takes up to len(dst) entries from the head on behalf of a thief,
// all under one acquisition of the owner lock — a single steal when
// len(dst) is 1, the batch transfer behind the steal-half policy otherwise.
// It implements both Figure 3(d) and (e): if the head is a special task its
// child is taken instead (or the attempt fails if the special task has no
// child in the deque). On failure the victim's stolen_num is incremented and
// need_task may be raised; on success both are cleared. The lock, the fault
// gate and this starvation bookkeeping are paid once per batch instead of
// once per entry.
//
// Per-entry effects are preserved exactly — each taken entry gets its
// StealAware notification and one trace event, so the trace invariants
// cannot tell a batch from a burst of single steals by the same thief.
//
// The return is the number of entries taken, head-most first in dst. Zero
// means the attempt failed; the failure went through the
// stolen_num/need_task path exactly once.
func (d *Deque) StealN(dst []Entry) int {
	if len(dst) == 0 {
		return 0
	}
	d.mu.Lock()
	n, op := 0, TraceStealOK
	if d.failSteal == nil || !d.failSteal() {
		n, op = d.claimLocked(dst)
	}
	if n == 0 {
		d.fail()
		d.mu.Unlock()
		return 0
	}
	for i := 0; i < n; i++ {
		if sa, ok := dst[i].(StealAware); ok {
			sa.OnStolen()
		}
		if d.trace != nil {
			d.trace(op, 0, false)
		}
	}
	d.stolenNum.Store(0)
	d.needTask.Store(false)
	d.mu.Unlock()
	return n
}

// FailEmpty is a failed steal attempt on an empty deque that takes no lock
// and publishes no claim: it does fail's stolen_num/need_task bookkeeping
// and reports true. It reports false, having done nothing, when the deque
// holds an entry (t > h) or a trace or fault hook is installed; the caller
// then makes the attempt through StealN, which a hook must see.
//
// It is exact only while no owner and no other thief runs, as under the
// Sim, where one worker executes at a time and an owner operation never
// yields half done: then H and T are at rest, and "empty" is precisely the
// condition under which claimLocked takes nothing, so the attempt fails as
// StealN's would — the same counter bump and the same need_task raise — and
// leaves the deque as StealN's retreat would have. A wall-clock thief must
// not call it: a concurrent claim's transient H can make a deque that holds
// an entry read as empty.
func (d *Deque) FailEmpty() bool {
	if d.trace != nil || d.failSteal != nil || d.t.Load() > d.h.Load() {
		return false
	}
	d.fail()
	return true
}

// claimLocked moves H over up to len(dst) head entries and copies them into
// dst, returning how many it took and which transition that was. The caller
// holds the owner lock.
//
// A claim must be published (H moved) *before* T is consulted and before the
// entry is read — the Dekker-style ordering against the owner's Pop is what
// makes the protocol safe — so entries are read only from slots the thief
// has already claimed. Slots are claimed one H++ at a time, which never
// overshoots H beyond the two slots of Push slack.
//
// A batch never crosses a special marker: it stops short of one, and when
// the marker is already at the head the attempt is the single
// steal_specialtask whatever len(dst) is.
func (d *Deque) claimLocked(dst []Entry) (int, TraceOp) {
	h := d.h.Load()
	n := 0
	for n < len(dst) {
		// Claim one slot: H++, MEMBAR, then check against T.
		d.h.Store(h + 1)
		if h+1 > d.t.Load() {
			d.h.Store(h) // retreat: nothing (more) to take
			break
		}
		e := d.buf[h&d.mask]
		if !e.Special() {
			dst[n] = e
			n++
			h++
			continue
		}
		if n > 0 {
			d.h.Store(h) // the batch stops short of a special marker
			break
		}
		// steal_specialtask: the marker can never be stolen. Re-claim with
		// H += 2 and take the special task's child at h+1. The marker slot is
		// protected while we hold the lock: the owner can only remove it via
		// PopSpecial (which locks) or a tail Pop that collides with our claim
		// (which falls back to the lock), so re-reading it was safe.
		d.h.Store(h + 2)
		if h+2 > d.t.Load() {
			d.h.Store(h) // the marker has no child in the deque
			d.loneMarkerT.Store(h + 1)
			break
		}
		dst[0] = d.buf[(h+1)&d.mask]
		return 1, TraceStealSpecial
	}
	return n, TraceStealOK
}

// Reset discards whatever a finished (or aborted) job left behind — entries
// a cancelled run never consumed, a raised need_task flag, the failed-steal
// counter, the depth high-water mark — so the next job of a resident pool
// starts from the same state a fresh deque would. It must only be called in
// quiescence (between jobs, with no worker running); the lock is taken for
// the memory ordering, not for mutual exclusion.
func (d *Deque) Reset() {
	d.mu.Lock()
	h, t := d.h.Load(), d.t.Load()
	for i := h; i < t; i++ {
		d.buf[i&d.mask] = nil // drop the abandoned entry for the GC
	}
	d.h.Store(0)
	d.t.Store(0)
	d.stolenNum.Store(0)
	d.needTask.Store(false)
	d.loneMarkerT.Store(0)
	d.maxDepth = 0
	d.mu.Unlock()
}

// growLocked doubles the ring, re-homing the live window [H, T) so every
// logical index keeps addressing its entry. The owner calls it from Push
// with the owner lock held, which excludes thieves; the owner cannot race
// itself.
func (d *Deque) growLocked() {
	ring := 2 * int64(len(d.buf))
	buf := make([]Entry, ring)
	h, t := d.h.Load(), d.t.Load()
	for i := h; i < t; i++ {
		buf[i&(ring-1)] = d.buf[i&d.mask]
	}
	d.buf, d.mask, d.room = buf, ring-1, min(ring, d.limit)-2
}

// fail is a failed attempt's starvation bookkeeping (Figure 3(d)): bump
// stolen_num, raise need_task past max_stolen_num, and report the
// transition to the trace hook. StealN calls it under the owner lock,
// which orders the trace records; FailEmpty only without a hook.
func (d *Deque) fail() {
	n := d.stolenNum.Add(1)
	if n > d.maxStolenNum {
		d.needTask.Store(true)
	}
	if d.trace != nil {
		d.trace(TraceStealFail, n, d.needTask.Load())
	}
}
