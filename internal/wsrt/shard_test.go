package wsrt

import (
	"reflect"
	"testing"
)

// grabShard takes the lowest free shard and returns its workers, nil when
// every shard is bound.
func grabShard(a *shardAlloc) []int {
	k := a.grab()
	if k < 0 {
		return nil
	}
	return a.parts[k]
}

// TestShardAllocStatic checks the equal-width partition: every job gets its
// share of the workers, and a freed shard is handed out again whole.
func TestShardAllocStatic(t *testing.T) {
	a := newShardAlloc(4, 2)
	s1 := a.grab()
	if want := []int{0, 1}; !reflect.DeepEqual(a.parts[s1], want) {
		t.Fatalf("first shard = %v, want %v", a.parts[s1], want)
	}
	if s2 := grabShard(a); !reflect.DeepEqual(s2, []int{2, 3}) {
		t.Fatalf("second shard = %v, want [2 3]", s2)
	}
	if s3 := grabShard(a); s3 != nil {
		t.Fatalf("grab with all shards bound = %v, want nil", s3)
	}
	a.release(s1)
	if s4 := grabShard(a); !reflect.DeepEqual(s4, []int{0, 1}) {
		t.Fatalf("shard after release = %v, want [0 1]", s4)
	}
}

// TestShardAllocStaticUneven spreads a non-divisible worker count: the
// last shard takes whatever remains, so no worker idles forever.
func TestShardAllocStaticUneven(t *testing.T) {
	a := newShardAlloc(5, 2)
	if s := grabShard(a); len(s) != 2 {
		t.Fatalf("first of two shards over 5 workers has width %d, want 2", len(s))
	}
	if s := grabShard(a); len(s) != 3 {
		t.Fatalf("second shard has width %d, want 3 (the remainder)", len(s))
	}
}

// TestShardAllocDisjoint grabs and releases in a fixed pattern and checks no
// worker is ever in two live shards and every worker is in some shard.
func TestShardAllocDisjoint(t *testing.T) {
	a := newShardAlloc(7, 3)
	covered := 0
	for _, s := range a.parts {
		covered += len(s)
	}
	if covered != 7 {
		t.Fatalf("partition %v covers %d of 7 workers", a.parts, covered)
	}
	held := map[int]bool{}
	owned := map[int]bool{}
	for step := 0; step < 200; step++ {
		if step%3 == 2 && len(held) > 0 {
			for k := range held { // release an arbitrary live shard
				for _, w := range a.parts[k] {
					owned[w] = false
				}
				a.release(k)
				delete(held, k)
				break
			}
			continue
		}
		k := a.grab()
		if k < 0 {
			continue
		}
		for _, w := range a.parts[k] {
			if owned[w] {
				t.Fatalf("step %d: worker %d handed out twice (live shards %v, new %v)", step, w, held, a.parts[k])
			}
			owned[w] = true
		}
		held[k] = true
	}
}

// TestShardAllocSingleWorker pins the degenerate pool: one worker, two job
// slots. The lone worker is one shard, a second grab starves until release,
// and the shard survives the cycle.
func TestShardAllocSingleWorker(t *testing.T) {
	a := newShardAlloc(1, 2)
	if s1 := grabShard(a); !reflect.DeepEqual(s1, []int{0}) {
		t.Fatalf("single-worker shard = %v, want [0]", s1)
	}
	if s := grabShard(a); s != nil {
		t.Fatalf("grab with no free workers = %v, want nil", s)
	}
	a.release(0)
	if s := grabShard(a); !reflect.DeepEqual(s, []int{0}) {
		t.Fatalf("shard after release = %v, want [0]", s)
	}
}

// TestShardAllocMoreSlotsThanWorkers allows more concurrent jobs than
// workers: the shard count clamps to the workers, each shard one wide, and
// a release re-admits the same worker.
func TestShardAllocMoreSlotsThanWorkers(t *testing.T) {
	a := newShardAlloc(2, 4)
	if len(a.parts) != 2 {
		t.Fatalf("2 workers, 4 slots cut into %v, want two shards", a.parts)
	}
	s1, s2 := grabShard(a), grabShard(a)
	if len(s1) != 1 || len(s2) != 1 || s1[0] == s2[0] {
		t.Fatalf("two one-wide disjoint shards wanted, got %v and %v", s1, s2)
	}
	if s := grabShard(a); s != nil {
		t.Fatalf("third grab with 2 workers = %v, want nil", s)
	}
	a.release(1)
	if s := grabShard(a); !reflect.DeepEqual(s, s2) {
		t.Fatalf("released worker not re-admitted: got %v, want %v", s, s2)
	}
}

// TestShardAllocSplitWhileHealing models a quarantined shard re-entering
// the free set: the dead job's release is the heal, and the jobs that
// queued up behind the failure get the two shards, disjoint.
func TestShardAllocSplitWhileHealing(t *testing.T) {
	a := newShardAlloc(4, 2)
	dead := a.grab() // the job that will panic
	a.release(dead)  // quarantine heal: the whole shard returns

	split, rest := grabShard(a), grabShard(a) // two jobs queued behind the failure
	if !reflect.DeepEqual(split, []int{0, 1}) || !reflect.DeepEqual(rest, []int{2, 3}) {
		t.Fatalf("healed workers split %v / %v, want [0 1] / [2 3]", split, rest)
	}
}

// TestShardAllocLive pins the occupancy view LiveShards serves: copies of
// the bound shards in worker order, whatever order they were bound in.
func TestShardAllocLive(t *testing.T) {
	a := newShardAlloc(6, 3)
	if got := a.live(); got != nil {
		t.Fatalf("idle live = %v, want none", got)
	}
	a.grab()
	a.grab()
	a.grab()
	a.release(1)
	got := a.live()
	if want := [][]int{{0, 1}, {4, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live = %v, want %v", got, want)
	}
	got[0][0] = 99
	if a.parts[0][0] != 0 {
		t.Fatal("live handed out the partition itself, not a copy")
	}
}
