package bnb

import (
	"testing"

	"adaptivetc/internal/core"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// knapsackOptimum enumerates every subset of k's items.
func knapsackOptimum(k *Knapsack) int64 {
	var best int64
	for set := 0; set < 1<<len(k.weights); set++ {
		var w, v int64
		for i := range k.weights {
			if set&(1<<i) != 0 {
				w, v = w+k.weights[i], v+k.values[i]
			}
		}
		if w <= k.capacity && v > best {
			best = v
		}
	}
	return best
}

// tspOptimum enumerates every tour from city 0 and returns the best
// savings C0 − cost.
func tspOptimum(t *TSP) int64 {
	best := int64(-1)
	perm := []int{0}
	used := make([]bool, t.n)
	var rec func(cost int64)
	rec = func(cost int64) {
		last := perm[len(perm)-1]
		if len(perm) == t.n {
			best = max(best, t.c0-cost-t.dist[last][0])
			return
		}
		for c := 1; c < t.n; c++ {
			if !used[c] {
				used[c], perm = true, append(perm, c)
				rec(cost + t.dist[last][c])
				used[c], perm = false, perm[:len(perm)-1]
			}
		}
	}
	rec(0)
	return best
}

// TestTelescopingDeltas checks the package's claim: the leaf values, the
// improvements of the incumbent, sum to the optimum on any schedule. The
// optimum is found by brute force; serial, Cilk and AdaptiveTC at 4 Sim
// workers must each return it, and leave it as LastIncumbent.
func TestTelescopingDeltas(t *testing.T) {
	type instance struct {
		p   sched.Program
		opt int64
		inc func() int64
	}
	var cases []instance
	for _, n := range []int{4, 8, 12} {
		for _, seed := range []int64{1, 20100424} {
			k := NewKnapsack(n, 0, seed)
			cases = append(cases, instance{k, knapsackOptimum(k), k.LastIncumbent})
		}
	}
	for _, n := range []int{2, 5, 7} {
		for _, seed := range []int64{1, 20100424} {
			p := NewTSP(n, seed)
			cases = append(cases, instance{p, tspOptimum(p), p.LastIncumbent})
		}
	}
	engines := []struct {
		e   sched.Engine
		opt sched.Options
	}{
		{sched.Serial{}, sched.Options{}},
		{wsrt.Cilk, sched.Options{Workers: 4}},
		{core.New(), sched.Options{Workers: 4}},
	}
	for _, c := range cases {
		if c.opt <= 0 {
			t.Fatalf("%s: brute-force optimum %d; the instance is degenerate", c.p.Name(), c.opt)
		}
		for _, en := range engines {
			res, err := en.e.Run(c.p, en.opt)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.p.Name(), en.e.Name(), err)
			}
			if res.Value != c.opt || c.inc() != c.opt {
				t.Errorf("%s on %s: value %d, LastIncumbent %d; brute force says %d",
					c.p.Name(), en.e.Name(), res.Value, c.inc(), c.opt)
			}
		}
	}
}

// TestAllocBudget: an Apply on a fresh Clone allocates nothing, because
// Clone keeps the capacity Root allocates; a clone of the exact length
// reallocated its path on its first Apply. The clones are taken deep
// enough that the path is past the tiny allocator, whose allocations
// ReadMemStats may not count yet.
func TestAllocBudget(t *testing.T) {
	const depth = 10
	for _, c := range []struct {
		p    sched.Program
		move func(depth int) int // a legal move at each depth of the walk
	}{
		{NewKnapsack(24, 0, 1), func(int) int { return 0 }}, // skip every item
		{NewTSP(12, 1), func(d int) int { return d }},       // visit the cities in order
	} {
		ws := c.p.Root()
		for d := 0; d < depth; d++ {
			if !c.p.Apply(ws, d, c.move(d)) {
				t.Fatalf("%s: move %d at depth %d refused", c.p.Name(), c.move(d), d)
			}
		}
		const runs = 100
		clones := make([]sched.Workspace, runs+1) // AllocsPerRun warms up once
		for i := range clones {
			clones[i] = ws.Clone()
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			c.p.Apply(clones[i], depth, c.move(depth))
			i++
		})
		if got != 0 {
			t.Errorf("%s: Apply on a fresh Clone: %v allocs, want 0", c.p.Name(), got)
		}
	}
}
