package wsrt

import (
	"math/bits"

	"adaptivetc/internal/deque"
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
	return &thief{id: id, rng: newSplitmix(seed, id), pick: p.pick}
}

// thief is the one Thief the policies share: who is asking, how often it has
// asked, its PRNG stream, and the rule it asks.
type thief struct {
	id       int
	attempts int
	rng      splitmix64
	pick     func(t *thief, deques []deque.WorkDeque) (victim, amount int)
}

func (t *thief) Pick(deques []deque.WorkDeque) (int, int) { return t.pick(t, deques) }

// other draws uniformly from the n-1 indices of [lo, lo+n) that are not the
// thief's own, which must lie inside the range: one draw, no rejection.
func (t *thief) other(lo, n int) int {
	v := lo + t.rng.intn(n-1)
	if v >= t.id {
		v++
	}
	return v
}

// splitmix64 is the same tiny PRNG the fault plane uses: one add and three
// shift-xor-multiply rounds per draw, no allocation, trivially seedable per
// stream. It replaces the shared Proc.Rand in the thief loop, fixing both
// the per-steal interface-call cost and the modulo bias of Intn(n-1) for
// worker counts that do not divide 2^63.
type splitmix64 struct{ state uint64 }

const golden64 = 0x9E3779B97F4A7C15

// thiefStream tags the thief-loop PRNG streams, keeping them disjoint from
// the fault plane's roleWorker/roleDeque/... streams under the same seed.
const thiefStream = 0x9E37_F00D

func newSplitmix(seed int64, id int) splitmix64 {
	z := uint64(seed) ^ (uint64(thiefStream) << 32) ^ (uint64(id+1) * golden64)
	// One scramble round so adjacent ids do not start in adjacent states.
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return splitmix64{state: z ^ (z >> 31)}
}

func (s *splitmix64) next() uint64 {
	s.state += golden64
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns an unbiased draw from [0, n) via Lemire's multiply-shift
// rejection method — no modulo, and the rejection loop runs ~never for the
// small n of a victim pick.
func (s *splitmix64) intn(n int) int {
	v := uint64(n)
	hi, lo := bits.Mul64(s.next(), v)
	if lo < v {
		thresh := -v % v
		for lo < thresh {
			hi, lo = bits.Mul64(s.next(), v)
		}
	}
	return int(hi)
}

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
