// The shard table: the piece of the multi-job pool that decides which
// workers serve which job. NewPool cuts its workers once into fixed shards —
// disjoint groups of consecutive workers — and a job starts on the
// lowest-numbered free shard. Its runtime's victim set is the shard's
// deques, and the shard is free again when the job finishes. Because every per-job structure — the Runtime, the engine
// instance, the deque slice, the starvation signals living inside those
// deques — is built over the shard, steal confinement and per-shard
// need_task/stolen_num state need no extra machinery: a worker in one shard
// cannot even name another shard's deques.
package wsrt

import "slices"

// shardAlloc is the pool's fixed partition of its workers and one busy flag
// per shard. It has no lock of its own: the pool calls grab, release and
// live under Pool.mu.
type shardAlloc struct {
	parts [][]int // parts[k]: shard k's global worker ids, ascending
	busy  []bool  // busy[k]: shard k is bound to a running job
}

// newShardAlloc cuts workers 0..n-1 into min(maxJobs, n) shards (at least
// one). Shard k takes the workers left after shards 0..k-1 divided by the
// shards still to cut, rounded down, so the last shard takes the remainder:
// 5 workers over 2 jobs is [0 1] [2 3 4].
func newShardAlloc(n, maxJobs int) *shardAlloc {
	m := min(max(maxJobs, 1), n)
	a := &shardAlloc{parts: make([][]int, m), busy: make([]bool, m)}
	next := 0
	for k := range a.parts {
		width := (n - next) / (m - k)
		for w := next; w < next+width; w++ {
			a.parts[k] = append(a.parts[k], w)
		}
		next += width
	}
	return a
}

// grab marks the lowest-numbered free shard busy and returns its index, or
// -1 when every shard is bound to a job.
func (a *shardAlloc) grab() int {
	k := slices.Index(a.busy, false)
	if k >= 0 {
		a.busy[k] = true
	}
	return k
}

// release marks shard k free.
func (a *shardAlloc) release(k int) { a.busy[k] = false }

// live returns a copy of every busy shard, in shard order — which is the
// order of their first (lowest) worker id.
func (a *shardAlloc) live() [][]int {
	var out [][]int
	for k, busy := range a.busy {
		if busy {
			out = append(out, slices.Clone(a.parts[k]))
		}
	}
	return out
}
