package wsrt

import (
	"reflect"
	"testing"
)

// TestShardAllocStatic checks the equal-width policy: every job gets its
// share of the free workers divided by the open slots, independent of how
// many jobs are actually waiting.
func TestShardAllocStatic(t *testing.T) {
	a := newShardAlloc(4, 2)
	s1 := a.grab(ShardStatic, 0)
	if want := []int{0, 1}; !reflect.DeepEqual(s1, want) {
		t.Fatalf("first static shard = %v, want %v", s1, want)
	}
	s2 := a.grab(ShardStatic, 5)
	if want := []int{2, 3}; !reflect.DeepEqual(s2, want) {
		t.Fatalf("second static shard = %v, want %v", s2, want)
	}
	if s3 := a.grab(ShardStatic, 0); s3 != nil {
		t.Fatalf("grab with all slots taken = %v, want nil", s3)
	}
	a.release(s1)
	if s4 := a.grab(ShardStatic, 0); !reflect.DeepEqual(s4, []int{0, 1}) {
		t.Fatalf("shard after release = %v, want [0 1]", s4)
	}
}

// TestShardAllocStaticUneven spreads a non-divisible worker count: the
// last job takes whatever remains, so no worker idles forever.
func TestShardAllocStaticUneven(t *testing.T) {
	a := newShardAlloc(5, 2)
	if s := a.grab(ShardStatic, 0); len(s) != 2 {
		t.Fatalf("first of two shards over 5 workers has width %d, want 2", len(s))
	}
	if s := a.grab(ShardStatic, 0); len(s) != 3 {
		t.Fatalf("second shard has width %d, want 3 (the remainder)", len(s))
	}
}

// TestShardAllocAdaptive checks grow-and-split: a job admitted to an idle
// pool takes every worker; with jobs waiting, the free set is split.
func TestShardAllocAdaptive(t *testing.T) {
	a := newShardAlloc(4, 2)
	grown := a.grab(ShardAdaptive, 0) // queue empty: grow to the whole pool
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(grown, want) {
		t.Fatalf("idle adaptive shard = %v, want %v", grown, want)
	}
	if s := a.grab(ShardAdaptive, 3); s != nil {
		t.Fatalf("no free workers but grab returned %v", s)
	}
	a.release(grown)

	split := a.grab(ShardAdaptive, 1) // one job waiting: split the pool
	if want := []int{0, 1}; !reflect.DeepEqual(split, want) {
		t.Fatalf("split adaptive shard = %v, want %v", split, want)
	}
	rest := a.grab(ShardAdaptive, 0)
	if want := []int{2, 3}; !reflect.DeepEqual(rest, want) {
		t.Fatalf("second adaptive shard = %v, want %v", rest, want)
	}
}

// TestShardAllocPolicyFlip flips adaptive→static while a grown shard holds
// every worker: the static grab must wait (nil) rather than hand out an
// overlapping or empty shard.
func TestShardAllocPolicyFlip(t *testing.T) {
	a := newShardAlloc(4, 2)
	grown := a.grab(ShardAdaptive, 0)
	if len(grown) != 4 {
		t.Fatalf("grown shard width %d, want 4", len(grown))
	}
	if s := a.grab(ShardStatic, 0); s != nil {
		t.Fatalf("static grab while all workers held = %v, want nil", s)
	}
	a.release(grown)
	if s := a.grab(ShardStatic, 0); len(s) != 2 {
		t.Fatalf("static grab after release has width %d, want 2", len(s))
	}
}

// TestShardAllocDisjoint grabs under mixed policies and waiting counts and
// checks no worker is ever in two live shards.
func TestShardAllocDisjoint(t *testing.T) {
	a := newShardAlloc(7, 3)
	held := map[int][]int{}
	owned := map[int]bool{}
	polFor := func(i int) ShardPolicy {
		if i%2 == 0 {
			return ShardAdaptive
		}
		return ShardStatic
	}
	id := 0
	for step := 0; step < 200; step++ {
		if step%3 == 2 && len(held) > 0 {
			for k, s := range held { // release an arbitrary live shard
				for _, w := range s {
					owned[w] = false
				}
				a.release(s)
				delete(held, k)
				break
			}
			continue
		}
		s := a.grab(polFor(step), step%4)
		if s == nil {
			continue
		}
		for _, w := range s {
			if owned[w] {
				t.Fatalf("step %d: worker %d handed out twice (live shards %v, new %v)", step, w, held, s)
			}
			owned[w] = true
		}
		held[id] = s
		id++
	}
}

// TestShardAllocSingleWorker pins the degenerate pool: one worker, two job
// slots. The lone worker is handed out whole, a second grab starves until
// release, and the free set survives the cycle.
func TestShardAllocSingleWorker(t *testing.T) {
	a := newShardAlloc(1, 2)
	s1 := a.grab(ShardStatic, 0)
	if want := []int{0}; !reflect.DeepEqual(s1, want) {
		t.Fatalf("single-worker shard = %v, want %v", s1, want)
	}
	if s := a.grab(ShardStatic, 3); s != nil {
		t.Fatalf("grab with no free workers = %v, want nil", s)
	}
	if s := a.grab(ShardAdaptive, 0); s != nil {
		t.Fatalf("adaptive grab with no free workers = %v, want nil", s)
	}
	a.release(s1)
	if s := a.grab(ShardAdaptive, 5); !reflect.DeepEqual(s, []int{0}) {
		t.Fatalf("shard after release = %v, want [0]", s)
	}
}

// TestShardAllocMoreSlotsThanWorkers allows more concurrent jobs than
// workers: width clamps at one, grabs stop when the free set empties (not
// when the slot count does), and releases re-admit in worker order.
func TestShardAllocMoreSlotsThanWorkers(t *testing.T) {
	a := newShardAlloc(2, 4)
	s1 := a.grab(ShardStatic, 0)
	s2 := a.grab(ShardStatic, 0)
	if len(s1) != 1 || len(s2) != 1 || s1[0] == s2[0] {
		t.Fatalf("two one-wide disjoint shards wanted, got %v and %v", s1, s2)
	}
	if s := a.grab(ShardStatic, 0); s != nil {
		t.Fatalf("third grab with 2 workers = %v, want nil (free set empty)", s)
	}
	a.release(s2)
	if s := a.grab(ShardAdaptive, 9); !reflect.DeepEqual(s, s2) {
		t.Fatalf("released worker not re-admitted: got %v, want %v", s, s2)
	}
}

// TestShardAllocSplitWhileHealing models a quarantined shard re-entering
// the allocator: a grown shard dies (its release is the heal), and the
// freed workers must split cleanly between the jobs that queued up behind
// the failure.
func TestShardAllocSplitWhileHealing(t *testing.T) {
	a := newShardAlloc(4, 2)
	grown := a.grab(ShardAdaptive, 0) // the job that will panic: all 4 workers
	if len(grown) != 4 {
		t.Fatalf("grown shard width %d, want 4", len(grown))
	}
	a.release(grown) // quarantine heal: the whole shard returns

	split := a.grab(ShardAdaptive, 1) // two jobs queued behind the failure
	rest := a.grab(ShardAdaptive, 0)
	if len(split) != 2 || len(rest) != 2 {
		t.Fatalf("healed workers split %v / %v, want two width-2 shards", split, rest)
	}
	for _, w := range split {
		for _, x := range rest {
			if w == x {
				t.Fatalf("healed split not disjoint: %v / %v", split, rest)
			}
		}
	}
}

// TestShardAllocFlipMidHeal flips adaptive→static while half the pool is
// still held by a live job: the static grab must size against the shrunken
// free set, never against workers a quarantined-then-healed shard already
// handed elsewhere.
func TestShardAllocFlipMidHeal(t *testing.T) {
	a := newShardAlloc(4, 2)
	grown := a.grab(ShardAdaptive, 0)
	a.release(grown) // heal
	half := a.grab(ShardAdaptive, 1)
	if want := []int{0, 1}; !reflect.DeepEqual(half, want) {
		t.Fatalf("post-heal split = %v, want %v", half, want)
	}
	// Policy flips to static while [2 3] is free and one slot remains.
	s := a.grab(ShardStatic, 0)
	if want := []int{2, 3}; !reflect.DeepEqual(s, want) {
		t.Fatalf("static grab mid-heal = %v, want %v", s, want)
	}
	if g := a.grab(ShardStatic, 0); g != nil {
		t.Fatalf("grab past capacity = %v, want nil", g)
	}
	a.release(half)
	a.release(s)
	if got := a.grab(ShardAdaptive, 0); len(got) != 4 {
		t.Fatalf("full free set after heals: got %v, want all 4 workers", got)
	}
}

// TestShardAllocSLOWithoutAdvisor checks the fallback contract: a pool
// set to the SLO policy but given no advisor behaves exactly like the
// adaptive policy — grow on an idle pool, split when jobs wait.
func TestShardAllocSLOWithoutAdvisor(t *testing.T) {
	a := newShardAlloc(4, 2)
	grown := a.grab(ShardSLO, 0)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(grown, want) {
		t.Fatalf("idle slo shard = %v, want %v", grown, want)
	}
	a.release(grown)
	split := a.grab(ShardSLO, 1)
	if want := []int{0, 1}; !reflect.DeepEqual(split, want) {
		t.Fatalf("slo shard with one waiter = %v, want %v", split, want)
	}
}

// TestShardAllocGrabClaims pins the clamping contract of the advisor
// entry point: claims below one grow to the whole free set, claims above
// the open slots are cut down to them, and exhaustion returns nil.
func TestShardAllocGrabClaims(t *testing.T) {
	a := newShardAlloc(8, 4)
	whole := a.grabClaims(0) // < 1 clamps to 1: the whole pool
	if len(whole) != 8 {
		t.Fatalf("grabClaims(0) width = %d, want 8", len(whole))
	}
	a.release(whole)

	first := a.grabClaims(100) // clamped to the 4 open slots: width 2
	if len(first) != 2 {
		t.Fatalf("grabClaims(100) width = %d, want 2", len(first))
	}
	rest := a.grabClaims(1) // one claim: everything still free
	if len(rest) != 6 {
		t.Fatalf("grabClaims(1) width = %d, want 6", len(rest))
	}
	if s := a.grabClaims(1); s != nil {
		t.Fatalf("grabClaims with no free workers = %v, want nil", s)
	}
}

// TestShardPolicyValid pins the policy name set.
func TestShardPolicyValid(t *testing.T) {
	for _, p := range []ShardPolicy{ShardStatic, ShardAdaptive, ShardSLO} {
		if !p.Valid() {
			t.Fatalf("policy %q should be valid", p)
		}
	}
	if ShardPolicy("p99").Valid() {
		t.Fatal("unknown policy accepted")
	}
}
