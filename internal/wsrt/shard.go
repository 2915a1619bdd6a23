// The shard allocator: the piece of the multi-job pool that decides which
// workers serve which job. A shard is a disjoint group of pool workers; a
// job admitted by the dispatcher is bound to exactly one shard, its
// runtime's victim set is the shard's deques, and the shard returns to the
// free set when the job finishes. Because every per-job structure — the
// Runtime, the engine instance, the deque slice, the starvation signals
// living inside those deques — is built over the shard, steal confinement
// and per-shard need_task/stolen_num state need no extra machinery: a
// worker in one shard cannot even name another shard's deques.
package wsrt

import (
	"slices"
	"sort"
)

// ShardPolicy selects how the allocator sizes the worker group handed to
// the next job.
type ShardPolicy string

const (
	// ShardStatic gives every job its equal share of the pool: the free
	// workers divided by the job slots still unclaimed. A lone job on an
	// otherwise idle pool still gets only Workers/MaxConcurrentJobs
	// workers, keeping the remaining shards warm for instant admission.
	ShardStatic ShardPolicy = "static"
	// ShardAdaptive sizes shards against demand: a job admitted while the
	// queue is empty takes every free worker (the shard grows), and when
	// jobs are waiting behind it the free workers are split between the
	// waiters (the shard splits), up to MaxConcurrentJobs ways.
	ShardAdaptive ShardPolicy = "adaptive"
	// ShardSLO delegates the sizing decision to a ShardAdvisor installed
	// with Pool.SetShardAdvisor: the advisor sees live demand (waiting
	// jobs, open slots, free workers) and returns how many concurrent jobs
	// the free set should be split between — typically driven by an
	// SLO signal such as a priority class's live p99 rather than only the
	// idle/waiting counts the adaptive policy uses. Without an advisor it
	// behaves exactly like ShardAdaptive.
	ShardSLO ShardPolicy = "slo"
)

// ShardPolicies lists the known policies, the default first (for usage
// strings and error messages).
var ShardPolicies = []ShardPolicy{ShardStatic, ShardAdaptive, ShardSLO}

// Valid reports whether p names a known policy. Front ends check it:
// Pool.SetShardPolicy runs anything else as ShardStatic.
func (p ShardPolicy) Valid() bool { return slices.Contains(ShardPolicies, p) }

// shardAlloc owns the pool's free-worker set and hands out disjoint shards.
// It is used only by the dispatcher goroutine, so it needs no locking; the
// policy itself lives on the Pool as an atomic so tests and operators can
// flip it mid-stream.
type shardAlloc struct {
	maxJobs int
	free    []int // free worker ids, ascending for deterministic shards
	running int   // shards currently handed out
}

// newShardAlloc builds an allocator over workers 0..n-1 with at most
// maxJobs concurrent shards.
func newShardAlloc(n, maxJobs int) *shardAlloc {
	a := &shardAlloc{maxJobs: maxJobs, free: make([]int, n)}
	for i := range a.free {
		a.free[i] = i
	}
	return a
}

// grab forms a shard for the next job under policy, or returns nil when no
// shard can be formed right now (all slots taken, or — after a policy flip
// shrank the free set — no workers left). waiting is the number of jobs
// still queued behind the one being placed; the adaptive policy uses it to
// decide between growing and splitting.
func (a *shardAlloc) grab(policy ShardPolicy, waiting int) []int {
	if a.running >= a.maxJobs || len(a.free) == 0 {
		return nil
	}
	claims := a.maxJobs - a.running
	if policy == ShardAdaptive || policy == ShardSLO {
		claims = waiting + 1
	}
	return a.grabClaims(claims)
}

// grabClaims forms a shard sized to split the free workers between claims
// concurrent jobs (clamped to the open slots and to at least one). It is
// the common tail of grab and the entry point for the SLO policy, whose
// advisor computes claims from a live latency signal instead of counts.
func (a *shardAlloc) grabClaims(claims int) []int {
	if a.running >= a.maxJobs || len(a.free) == 0 {
		return nil
	}
	if slots := a.maxJobs - a.running; claims > slots {
		claims = slots
	}
	if claims < 1 {
		claims = 1
	}
	width := len(a.free) / claims
	if width < 1 {
		width = 1
	}
	shard := make([]int, width)
	copy(shard, a.free[:width])
	a.free = append(a.free[:0:0], a.free[width:]...)
	a.running++
	return shard
}

// release returns a finished job's shard to the free set.
func (a *shardAlloc) release(shard []int) {
	a.running--
	a.free = append(a.free, shard...)
	sort.Ints(a.free)
}
