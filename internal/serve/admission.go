// The QoS admission plane: tenant identity, priority classes, per-tenant
// quotas and token-bucket rate limits, and the weighted-fair queue that
// replaced the single FIFO in front of wsrt.Pool.Submit.
//
// Admission is two-stage. Submit performs the synchronous, caller-visible
// checks (rate limit, quota, global capacity — each a 429 with its own
// Retry-After) and enqueues the job into the weighted-fair queue; feed
// then hands jobs to the pool in QoS order, never more than the pool has
// shards plus the one job staged in its own (capacity-1) queue. No
// goroutine coordinates this: Submit feeds, and so does every job that
// finishes on the pool. Keeping the pool-side buffer minimal is what makes
// the weights matter: every job that is not literally next waits where
// priority is still mutable, so a late-arriving interactive job overtakes
// queued batch work instead of sitting behind it in a FIFO.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"adaptivetc/internal/wsrt"
)

// Priority is a job's QoS class. Classes share the admission queue under
// smooth weighted round-robin: with the default weights an interactive
// job is picked 16× as often as a background one when both classes have
// work queued, but no class is ever starved outright.
type Priority string

const (
	// PriorityInteractive: latency-sensitive, user-facing work.
	PriorityInteractive Priority = "interactive"
	// PriorityBatch: the default class for unmarked submissions.
	PriorityBatch Priority = "batch"
	// PriorityBackground: best-effort work that yields to everything else.
	PriorityBackground Priority = "background"
)

// priorityOrder fixes a deterministic iteration order for the scheduler
// and for metrics snapshots.
var priorityOrder = []Priority{PriorityInteractive, PriorityBatch, PriorityBackground}

// priorityWeights are the admission shares. They are deliberately not
// configurable per request — a tenant picks a class, the operator owns
// the ratios.
var priorityWeights = map[Priority]int{
	PriorityInteractive: 16,
	PriorityBatch:       4,
	PriorityBackground:  1,
}

// ParsePriority maps a request's priority string to its class. Empty
// means PriorityBatch, so unmarked traffic neither jumps the interactive
// queue nor falls behind background work.
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case "":
		return PriorityBatch, nil
	case PriorityInteractive, PriorityBatch, PriorityBackground:
		return Priority(s), nil
	}
	return "", fmt.Errorf("serve: unknown priority %q (have %v)", s, priorityOrder)
}

// DefaultTenant is the identity assumed for requests that carry none.
const DefaultTenant = "default"

// ErrDraining reports a submission to a service that is draining: it is
// finishing its backlog and will not accept new jobs (HTTP 503 upstream).
var ErrDraining = errors.New("serve: draining: not accepting new jobs")

// RejectionError is a per-tenant admission rejection (HTTP 429 upstream).
// RetryAfter is the tenant-specific back-off hint: for a rate limit, the
// time until the token bucket refills a whole token; for a quota, a flat
// second, since quota headroom returns only when one of the tenant's own
// jobs finishes. A cluster-mode capacity rejection (Reason "capacity")
// also carries this type so the client sees *this* node's Retry-After
// hint — never a peer's — and wraps wsrt.ErrQueueFull for errors.Is.
type RejectionError struct {
	Tenant     string
	Reason     string // "rate-limit", "quota" or "capacity"
	RetryAfter time.Duration
	cause      error
}

func (e *RejectionError) Error() string {
	return fmt.Sprintf("serve: tenant %q rejected (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// Unwrap exposes the underlying sentinel (wsrt.ErrQueueFull for capacity
// rejections), keeping existing errors.Is call sites working.
func (e *RejectionError) Unwrap() error { return e.cause }

// TenantLimits bounds one tenant's use of the service. The zero value is
// unlimited.
type TenantLimits struct {
	// MaxInFlight caps the tenant's queued+running jobs; 0 is unlimited.
	MaxInFlight int
	// RatePerSec is the tenant's token-bucket refill rate in submissions
	// per second; 0 is unlimited.
	RatePerSec float64
	// Burst is the bucket depth; 0 means max(1, ceil(RatePerSec)).
	Burst int
}

// tokenBucket is a standard refill-on-access token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables the bucket
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(lim TenantLimits) *tokenBucket {
	burst := float64(lim.Burst)
	if burst <= 0 {
		burst = math.Max(1, math.Ceil(lim.RatePerSec))
	}
	return &tokenBucket{rate: lim.RatePerSec, burst: burst}
}

// take consumes one token if available; otherwise it reports how long
// until a whole token will have refilled (the Retry-After hint).
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = b.burst
	} else {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// admItem is one queued submission: the job record plus everything feed
// needs to hand it to the pool.
type admItem struct {
	job  *Job
	spec wsrt.JobSpec

	// Guarded by wfq.mu: whether the item is in the queue, and the stop
	// function of its cancel hook (see Service.enqueue), nil if it has none.
	queued bool
	unhook func() bool
}

// leave marks the item out of the queue and stops its cancel hook. The
// caller holds wfq.mu.
func (it *admItem) leave() {
	it.queued = false
	if it.unhook != nil {
		it.unhook()
		it.unhook = nil
	}
}

// wfqTenant is one tenant's FIFO within a class.
type wfqTenant struct {
	name  string
	items []*admItem
}

// wfqClass is one priority class: per-tenant FIFOs drained round-robin,
// so within a class every tenant gets an equal share regardless of how
// many jobs each has queued.
type wfqClass struct {
	weight int
	credit int // smooth-weighted-round-robin state
	tens   map[string]*wfqTenant
	rr     []*wfqTenant // tenants with queued work, round-robin order
	rrNext int
	size   int
}

func (c *wfqClass) tenant(name string) *wfqTenant {
	t := c.tens[name]
	if t == nil {
		t = &wfqTenant{name: name}
		c.tens[name] = t
		c.rr = append(c.rr, t)
	}
	return t
}

func (c *wfqClass) push(it *admItem) {
	t := c.tenant(it.job.tenant)
	t.items = append(t.items, it)
	c.size++
}

// pushFront returns an item to the head of its tenant's FIFO — a job an
// extractor hands back (RemoteJob.Requeue) — so per-tenant FIFO order
// survives the round trip.
func (c *wfqClass) pushFront(it *admItem) {
	t := c.tenant(it.job.tenant)
	t.items = append([]*admItem{it}, t.items...)
	c.size++
}

// pop removes and returns the next item in round-robin tenant order. A
// tenant whose FIFO empties leaves the ring (and re-enters on its next
// push), so idle tenants cost nothing.
func (c *wfqClass) pop() *admItem {
	for i := 0; i < len(c.rr); i++ {
		idx := (c.rrNext + i) % len(c.rr)
		t := c.rr[idx]
		if len(t.items) == 0 {
			continue
		}
		it := t.items[0]
		t.items = t.items[1:]
		c.size--
		if len(t.items) == 0 {
			delete(c.tens, t.name)
			c.rr = append(c.rr[:idx], c.rr[idx+1:]...)
			if len(c.rr) == 0 {
				c.rrNext = 0
			} else {
				c.rrNext = idx % len(c.rr)
			}
		} else {
			c.rrNext = (idx + 1) % len(c.rr)
		}
		return it
	}
	return nil
}

// wfq is the weighted-fair admission queue: one wfqClass per priority,
// drained by smooth weighted round-robin. push, pushFront, pop and remove
// run under mu, which their caller holds; extractBack and depth take it.
type wfq struct {
	mu      sync.Mutex
	classes map[Priority]*wfqClass
	size    int
}

func newWFQ() *wfq {
	q := &wfq{classes: make(map[Priority]*wfqClass, len(priorityOrder))}
	for _, p := range priorityOrder {
		q.classes[p] = &wfqClass{weight: priorityWeights[p], tens: make(map[string]*wfqTenant)}
	}
	return q
}

func (q *wfq) push(it *admItem) {
	q.classes[it.job.prio].push(it)
	q.size++
	it.queued = true
}

func (q *wfq) pushFront(it *admItem) {
	q.classes[it.job.prio].pushFront(it)
	q.size++
	it.queued = true
}

// pop removes and returns the next item, choosing the class by smooth
// weighted round-robin and the tenant within it by plain round-robin; ok
// is false when the queue is empty.
func (q *wfq) pop() (it *admItem, ok bool) {
	if q.size == 0 {
		return nil, false
	}
	var best *wfqClass
	total := 0
	for _, p := range priorityOrder {
		c := q.classes[p]
		if c.size == 0 {
			continue
		}
		c.credit += c.weight
		total += c.weight
		if best == nil || c.credit > best.credit {
			best = c
		}
	}
	best.credit -= total
	q.size--
	it = best.pop()
	it.leave()
	return it, true
}

// remove takes it out of the queue, wherever it stands.
func (q *wfq) remove(it *admItem) {
	q.classes[it.job.prio].popBack(func(x *admItem) bool { return x == it })
	q.size--
	it.leave()
}

// popBack removes the movable item that would be served last: scanning
// tenant FIFOs from the back of the ring, the item nearest a FIFO's tail
// that movable accepts. The cluster tier extracts here — shedding the work
// that would wait longest keeps a forward from stealing an interactive job
// out from under its SLO.
func (c *wfqClass) popBack(movable func(*admItem) bool) *admItem {
	for i := len(c.rr) - 1; i >= 0; i-- {
		t := c.rr[i]
		for k := len(t.items) - 1; k >= 0; k-- {
			it := t.items[k]
			if !movable(it) {
				continue
			}
			t.items = append(t.items[:k], t.items[k+1:]...)
			c.size--
			if len(t.items) == 0 {
				delete(c.tens, t.name)
				c.rr = append(c.rr[:i], c.rr[i+1:]...)
				if len(c.rr) == 0 {
					c.rrNext = 0
				} else {
					c.rrNext %= len(c.rr)
				}
			}
			return it
		}
	}
	return nil
}

// extractBack removes up to max movable items in reverse service order
// (lowest class first, tenant-FIFO tails first). It never blocks; a queue
// with nothing movable returns nil.
func (q *wfq) extractBack(max int, movable func(*admItem) bool) []*admItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*admItem
	for i := len(priorityOrder) - 1; i >= 0 && len(out) < max; i-- {
		c := q.classes[priorityOrder[i]]
		for len(out) < max {
			it := c.popBack(movable)
			if it == nil {
				break
			}
			q.size--
			it.leave()
			out = append(out, it)
		}
	}
	return out
}

// depth returns the number of queued items.
func (q *wfq) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
