package deque

// Relaxed is the lock-reduced variant of the THE deque, after Castañeda &
// Piña's observation that the owner-path synchronisation cost is not
// fundamental. The thief side is untouched — Steal/StealN are the embedded
// Deque's, keeping the lock-ordered claim protocol, the StealAware
// notification ordering and the starvation FSM exactly as they are — but
// the owner's Push and Pop are fence-light:
//
//   - The owner caches T in a plain field (it is T's only writer), so Push
//     and Pop never load it; the atomic T store remains, because it is the
//     MEMBAR of the protocol — the one publication thieves order against,
//     and the one that publishes the plain slot write before it.
//   - The owner tracks a monotone lower bound of H (hCache), refreshed only
//     from at-rest reads (under the owner lock, or its own PopSpecial
//     re-normalisation), never from a racing thief's transient claim. The
//     capacity check and the depth high-water pre-filter run against the
//     bound, so the common Push performs zero atomic loads.
//   - Pop still falls back to the owner lock in the conflict window (H
//     caught up with T) — the one place owner and thief must serialise,
//     because a steal's deposit registration (StealAware.OnStolen) must be
//     ordered before the victim acts on the failed pop.
//
// The owner fast path is therefore one atomic store per Push and one store
// plus one load per Pop, against the THE deque's three and three. Nothing
// here admits multiplicity: ownership of every entry is still linearised by
// the claim protocol, so the variant targets k = 1 under the
// multiplicity-tolerant checker (trace.Laws.K) that guards it —
// the checker's k ≥ 2 allowance is headroom for genuinely fence-free
// descendants, not a licence this implementation uses.
//
// Like Growable it has no capacity limit: a full ring doubles on the owner's
// Push under the owner lock, and Push never reports overflow.
type Relaxed struct {
	*Deque
	bottom int64 // owner's cached T; equals Deque.t between owner operations
	hCache int64 // owner's monotone lower bound of H (at-rest reads only)
}

// NewRelaxed returns a lock-reduced growable deque with the given
// max_stolen_num threshold; its ring starts as NewGrowable's does.
func NewRelaxed(initial, maxStolenNum int) *Relaxed {
	return &Relaxed{Deque: NewGrowable(initial, maxStolenNum)}
}

// Push appends e at the tail. Only the owner may call it. The fast path is
// a plain slot write, one atomic store (T) and no atomic loads: room and
// the depth high-water mark are checked against the cached H bound, and the
// bound is only refreshed under the owner lock, where no thief holds a
// transient over-claim (a stale claim frozen into the cache would erode the
// two slots of Push slack the claim windows rely on). It never reports
// overflow: a full ring doubles, as in Growable.
func (r *Relaxed) Push(e Entry) bool {
	d := r.Deque
	b := r.bottom
	if b-r.hCache >= d.room {
		d.mu.Lock()
		r.hCache = d.h.Load() // at rest: no thief claim is in flight
		if b-r.hCache >= d.room {
			d.growLocked()
		}
		d.mu.Unlock()
	}
	d.buf[b&d.mask] = e
	r.bottom = b + 1
	d.t.Store(b + 1) // release: publishes the slot write to thieves
	// Depth high-water: the cached bound over-counts (H only grows), so it
	// is a cheap pre-filter; the fresh reload can at worst read a thief's
	// transient claim and under-count by the claim width, same as Deque.
	if b+1-r.hCache > d.maxDepth {
		if depth := b + 1 - d.h.Load(); depth > d.maxDepth {
			d.maxDepth = depth
		}
	}
	return true
}

// Pop removes and returns the tail entry. Only the owner may call it. The
// fast path is one atomic store (T, the protocol's MEMBAR) and one atomic
// load (H); the conflict window falls back to the owner lock exactly as
// Deque.Pop does, re-normalising to empty on failure.
func (r *Relaxed) Pop() (Entry, bool) {
	d := r.Deque
	b := r.bottom - 1
	d.t.Store(b) // the MEMBAR: publish the claim before consulting H
	r.bottom = b
	h := d.h.Load()
	if h > b {
		d.t.Store(b + 1)
		d.mu.Lock()
		b = d.t.Load() - 1
		d.t.Store(b)
		r.bottom = b
		h = d.h.Load()
		if h > b {
			d.t.Store(h) // normalise empty
			r.bottom = h
			r.hCache = h // at-rest read: safe to cache
			d.mu.Unlock()
			return nil, false
		}
		r.hCache = h
		d.mu.Unlock()
	}
	return d.take(b), true
}

// PopSpecial removes the owner's special marker, reporting child theft (see
// Deque.PopSpecial). Re-normalising H = T moves H downward, so the cached
// bound is re-anchored to keep it a true lower bound.
func (r *Relaxed) PopSpecial() (stolen bool) {
	d := r.Deque
	d.mu.Lock()
	t := d.t.Load() - 1
	d.t.Store(t)
	r.bottom = t
	if d.h.Load() > t {
		d.h.Store(t) // re-normalise: the marker stays owned by the victim
		r.hCache = t
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()
	return false
}

// Reset empties the deque and clears the starvation signal and high-water
// mark (see Deque.Reset). The grown ring is kept.
func (r *Relaxed) Reset() {
	r.Deque.Reset()
	r.bottom = 0
	r.hCache = 0
}
