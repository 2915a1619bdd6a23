package wsrt

import (
	"adaptivetc/internal/deque"
	"adaptivetc/internal/faults"
)

// MaxStealBatch bounds how many entries one steal attempt may take. It also
// sizes the per-worker batch buffer, so raising it costs every worker
// MaxStealBatch words whether or not a batching policy is in use.
const MaxStealBatch = 16

// Thief is one worker's steal-side state for a job: each attempt asks it
// which victim to rob and how many entries to take. Implementations are
// confined to their worker (no synchronisation), may keep per-attempt state
// (PRNG, attempt counters) and may consult the deques read-only (Size) —
// the amount is a request, clamped by what the victim actually holds.
type Thief interface {
	// Pick returns the victim's index within deques and the number of
	// entries to try for (1 for a classic single steal, up to
	// MaxStealBatch for a batch). deques[self] is the thief's own deque
	// and must not be picked when len(deques) > 1.
	Pick(deques []deque.WorkDeque) (victim, amount int)
}

// StealPolicy is a victim-selection/steal-amount rule as a value: a name and
// the pick it makes, selected per run via sched.Options.StealPolicy (and per
// job on a pool via JobSpec.StealPolicy). The rule itself is stateless; what
// an attempt may remember lives in the thief it is handed.
type StealPolicy struct {
	name string
	pick func(t *thief, deques []deque.WorkDeque) (victim, amount int)
}

// Name returns the name the policy is selected by.
func (p StealPolicy) Name() string { return p.name }

// NewThief builds worker id's thief for a run of n workers. The seed is the
// run seed; the thief draws from a private stream derived from (seed, id), so
// schedules stay a pure function of the options.
func (p StealPolicy) NewThief(id, n int, seed int64) Thief {
	return &thief{id: id, rng: faults.NewStream(seed, thiefStream, id), pick: p.pick}
}

// thief is the one Thief the policies share: who is asking, how often it has
// asked, its PRNG stream, and the rule it asks.
type thief struct {
	id       int
	attempts int
	rng      faults.Stream
	pick     func(t *thief, deques []deque.WorkDeque) (victim, amount int)
}

func (t *thief) Pick(deques []deque.WorkDeque) (int, int) { return t.pick(t, deques) }

// other draws uniformly from the n-1 indices of [lo, lo+n) that are not the
// thief's own, which must lie inside the range: one draw, no rejection.
func (t *thief) other(lo, n int) int {
	v := lo + t.rng.Intn(n-1)
	if v >= t.id {
		v++
	}
	return v
}

// thiefStream is the role of the thief-loop streams (faults.Stream, a
// private splitmix64 per worker instead of the shared Proc.Rand: no
// per-steal interface call, no modulo bias in the victim draw), keeping
// them disjoint from the fault plane's roles under the same seed.
const thiefStream = 0x9E37_F00D

// shardWindow is the neighbourhood width of the shard-local policy.
const shardWindow = 4

// wideEvery makes every wideEvery-th attempt ignore the neighbourhood, so
// work still diffuses across a big shard instead of ping-ponging inside
// aligned windows.
const wideEvery = 4

// stealPolicies is the table: one row per rule, in the order usage strings
// and error messages list them. The first row is the default.
var stealPolicies = []StealPolicy{
	// The paper's baseline: a uniform victim, one entry.
	{"random", func(t *thief, deques []deque.WorkDeque) (int, int) {
		return t.other(0, len(deques)), 1
	}},

	// A uniform victim, half of what its deque holds.
	{"steal-half", func(t *thief, deques []deque.WorkDeque) (int, int) {
		v := t.other(0, len(deques))
		// An empty or single-entry victim is still asked for one entry, so
		// an organic failure drives the victim's starvation FSM.
		return v, min(max(deques[v].Size()/2, 1), MaxStealBatch)
	}},

	// Rob the deepest deque.
	{"richest-first", func(t *thief, deques []deque.WorkDeque) (int, int) {
		best, bestSize := -1, 0
		for i, d := range deques {
			if i == t.id {
				continue
			}
			if s := d.Size(); s > bestSize {
				best, bestSize = i, s
			}
		}
		if best < 0 {
			// Everyone looks empty: fall back to a random victim rather than
			// a fixed one, so the organic failures spread across the deques
			// and the need_task signal rises where the paper expects it.
			best = t.other(0, len(deques))
		}
		return best, 1
	}},

	// Prefer neighbours, occasionally go wide. The deque slice is the steal
	// domain (on a pool it is exactly the shard), so "shard-local" means the
	// aligned shardWindow-wide run of indices around the thief — contiguous
	// ids are contiguous workers of the same shard by construction of the
	// shard allocator.
	{"shard-local", func(t *thief, deques []deque.WorkDeque) (int, int) {
		t.attempts++
		lo := (t.id / shardWindow) * shardWindow
		hi := min(lo+shardWindow, len(deques))
		if t.attempts%wideEvery == 0 || hi-lo <= 1 {
			return t.other(0, len(deques)), 1
		}
		return t.other(lo, hi-lo), 1
	}},
}

// StealPolicyByName resolves a policy name. The empty string and unknown
// names resolve to "random" — front ends that want hard errors validate
// with ValidStealPolicy before a run reaches this point.
func StealPolicyByName(name string) StealPolicy {
	for _, p := range stealPolicies {
		if p.name == name {
			return p
		}
	}
	return stealPolicies[0]
}

// ValidStealPolicy reports whether name is the empty default or a known
// policy.
func ValidStealPolicy(name string) bool {
	return name == "" || StealPolicyByName(name).name == name
}

// StealPolicyNames returns the known policy names in table order (for usage
// strings and error messages).
func StealPolicyNames() []string {
	names := make([]string, len(stealPolicies))
	for i, p := range stealPolicies {
		names[i] = p.name
	}
	return names
}
