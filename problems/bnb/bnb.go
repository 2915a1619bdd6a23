// Package bnb is the branch-and-bound workload family: seeded 0/1 knapsack
// and a TSP-lite tour search, both maximisation problems pruned by a shared
// incumbent bound. It is the first family where inter-worker communication
// is part of the workload: every worker reads the incumbent to prune and
// CAS-publishes to tighten it, so scheduler decisions change which subtrees
// are ever explored.
//
// # The incumbent protocol, and why Value stays exact
//
// Engines compute Value = Σ over leaves — a sum, not a max. The family
// encodes the running maximum as telescoping deltas:
//
//   - A complete candidate with objective cand runs a CAS-improve loop on
//     the incumbent; the successful improver's leaf value is cand − old.
//     The successful improvements form a strictly increasing chain starting
//     at 0, so Σ deltas = final incumbent, independent of order, worker
//     count, or which worker published which improvement.
//   - A node whose upper bound UB(ws) cannot beat the current incumbent is
//     a value-0 leaf (pruned). Pruning is value-sound: if a pruned subtree
//     contained the global optimum OPT, then OPT ≤ UB ≤ incumbent-then ≤
//     incumbent-final, and the incumbent only ever holds achievable
//     objectives, so incumbent-final = OPT anyway.
//
// Hence every run — serial oracle, any engine, any schedule — returns
// exactly the instance's optimum, while the *work done* (nodes visited,
// tasks created) varies with how fast good incumbents propagate. Under the
// deterministic Sim platform workers interleave deterministically, so
// seeded reruns are byte-identical, incumbent races included.
//
// The incumbent lives in per-run state allocated by Root() (shared by all
// of that run's workspace clones), so a Program instance can be reused
// across sequential runs and raced by concurrent ones. Like dagflow, the
// shared state makes the family unsuitable for engines that re-execute
// moves (Tascell); the seven pool engines and the serial oracle run it.
package bnb

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"adaptivetc/internal/sched"
)

// incumbent is the shared bound of one run.
type incumbent struct{ best atomic.Int64 }

// publish CAS-improves the incumbent with cand and returns the leaf delta:
// cand−old for the successful improver, 0 otherwise.
func (inc *incumbent) publish(cand int64) int64 {
	for {
		cur := inc.best.Load()
		if cand <= cur {
			return 0
		}
		if inc.best.CompareAndSwap(cur, cand) {
			return cand - cur
		}
	}
}

// ---------------------------------------------------------------- knapsack

// Knapsack is a seeded 0/1 knapsack instance: maximise Σ values of the
// chosen items subject to Σ weights ≤ capacity. Depth d decides item d;
// move 0 skips, move 1 takes (illegal when over capacity). The upper bound
// at depth d is current value + Σ values of the undecided items.
type Knapsack struct {
	name      string
	weights   []int64
	values    []int64
	capacity  int64
	suffixVal []int64 // suffixVal[d] = Σ values[d:]
	lastInc   atomic.Pointer[incumbent]
}

type knapWS struct {
	inc    *incumbent
	taken  []bool
	weight int64
	value  int64
}

// Clone keeps the capacity Root allocates, so the clone's first Apply does
// not reallocate (DESIGN §4.1).
func (w *knapWS) Clone() sched.Workspace {
	c := &knapWS{inc: w.inc, taken: make([]bool, len(w.taken), cap(w.taken)), weight: w.weight, value: w.value}
	copy(c.taken, w.taken)
	return c
}

func (w *knapWS) Bytes() int { return len(w.taken) + 16 }

// NewKnapsack builds a seeded n-item instance. capacity ≤ 0 means 40% of
// the total weight — tight enough that pruning matters, loose enough that
// the optimum is nontrivial. n is clamped to ≥1.
func NewKnapsack(n int, capacity int64, seed int64) *Knapsack {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	k := &Knapsack{
		weights: make([]int64, n),
		values:  make([]int64, n),
	}
	var totalW int64
	for i := 0; i < n; i++ {
		k.weights[i] = 1 + rng.Int63n(30)
		k.values[i] = 1 + rng.Int63n(50)
		totalW += k.weights[i]
	}
	if capacity <= 0 {
		capacity = totalW * 2 / 5
		if capacity < 1 {
			capacity = 1
		}
	}
	k.capacity = capacity
	k.suffixVal = make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		k.suffixVal[i] = k.suffixVal[i+1] + k.values[i]
	}
	k.name = fmt.Sprintf("bnb-knapsack(n=%d,cap=%d)", n, capacity)
	return k
}

// Name implements sched.Program.
func (k *Knapsack) Name() string { return k.name }

// Root implements sched.Program, starting this run's incumbent at 0.
func (k *Knapsack) Root() sched.Workspace {
	inc := &incumbent{}
	k.lastInc.Store(inc)
	return &knapWS{inc: inc, taken: make([]bool, 0, len(k.weights))}
}

// Terminal implements sched.Program: a full decision vector publishes its
// candidate (leaf value = improvement delta); an interior node whose upper
// bound cannot beat the incumbent is a value-0 pruned leaf.
func (k *Knapsack) Terminal(w sched.Workspace, depth int) (int64, bool) {
	s := w.(*knapWS)
	if depth == len(k.weights) {
		return s.inc.publish(s.value), true
	}
	if s.value+k.suffixVal[depth] <= s.inc.best.Load() {
		return 0, true // pruned: nothing below can improve the incumbent
	}
	return 0, false
}

// Moves implements sched.Program: skip or take item `depth`.
func (k *Knapsack) Moves(w sched.Workspace, depth int) int { return 2 }

// Apply implements sched.Program.
func (k *Knapsack) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*knapWS)
	take := m == 1
	if take {
		if s.weight+k.weights[depth] > k.capacity {
			return false
		}
		s.weight += k.weights[depth]
		s.value += k.values[depth]
	}
	s.taken = append(s.taken, take)
	return true
}

// Undo implements sched.Program.
func (k *Knapsack) Undo(w sched.Workspace, depth, m int) {
	s := w.(*knapWS)
	n := len(s.taken) - 1
	if s.taken[n] {
		s.weight -= k.weights[depth]
		s.value -= k.values[depth]
	}
	s.taken = s.taken[:n]
}

// LastIncumbent returns the final incumbent of the most recent Root() call
// (the run's optimum once that run completed), or 0 before any run.
func (k *Knapsack) LastIncumbent() int64 {
	if inc := k.lastInc.Load(); inc != nil {
		return inc.best.Load()
	}
	return 0
}

// ---------------------------------------------------------------- TSP-lite

// TSP is a seeded symmetric TSP-lite instance over n cities: tours start
// and end at city 0, depth d places the d+1-th city, and the objective is
// the *savings* form C0 − tour cost with C0 = n·maxEdge + 1, so every tour
// scores ≥ 1 and "maximise savings" = "minimise cost" — which keeps the
// telescoping-delta encoding a maximisation like knapsack. The bound at an
// interior node assumes every remaining edge costs minEdge.
type TSP struct {
	name    string
	n       int
	dist    [][]int64
	c0      int64
	minEdge int64
	lastInc atomic.Pointer[incumbent]
}

type tspWS struct {
	inc     *incumbent
	perm    []int32
	visited uint32
	cost    int64
}

// Clone keeps the capacity Root allocates, as knapWS.Clone does.
func (w *tspWS) Clone() sched.Workspace {
	c := &tspWS{inc: w.inc, perm: make([]int32, len(w.perm), cap(w.perm)), visited: w.visited, cost: w.cost}
	copy(c.perm, w.perm)
	return c
}

func (w *tspWS) Bytes() int { return len(w.perm)*4 + 16 }

// NewTSP builds a seeded n-city instance (clamped to 2 ≤ n ≤ 16; the
// visited set is a 32-bit mask and the family is a correctness workload,
// not a solver).
func NewTSP(n int, seed int64) *TSP {
	if n < 2 {
		n = 2
	}
	if n > 16 {
		n = 16
	}
	rng := rand.New(rand.NewSource(seed))
	t := &TSP{n: n, dist: make([][]int64, n)}
	for i := range t.dist {
		t.dist[i] = make([]int64, n)
	}
	var maxEdge int64
	t.minEdge = 1 << 30
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 + rng.Int63n(99)
			t.dist[i][j], t.dist[j][i] = d, d
			if d > maxEdge {
				maxEdge = d
			}
			if d < t.minEdge {
				t.minEdge = d
			}
		}
	}
	t.c0 = int64(n)*maxEdge + 1
	t.name = fmt.Sprintf("bnb-tsp(n=%d)", n)
	return t
}

// Name implements sched.Program.
func (t *TSP) Name() string { return t.name }

// Root implements sched.Program: the tour starts at city 0, in a path with
// room for every city.
func (t *TSP) Root() sched.Workspace {
	inc := &incumbent{}
	t.lastInc.Store(inc)
	return &tspWS{inc: inc, perm: make([]int32, 1, t.n), visited: 1}
}

// Terminal implements sched.Program: a complete permutation closes the tour
// and publishes its savings; an interior node prunes when even all-minEdge
// remaining legs cannot beat the incumbent.
func (t *TSP) Terminal(w sched.Workspace, depth int) (int64, bool) {
	s := w.(*tspWS)
	if len(s.perm) == t.n {
		tour := s.cost + t.dist[s.perm[t.n-1]][0]
		return s.inc.publish(t.c0 - tour), true
	}
	remaining := int64(t.n - len(s.perm) + 1) // legs still to drive, incl. closing
	if t.c0-(s.cost+remaining*t.minEdge) <= s.inc.best.Load() {
		return 0, true // pruned
	}
	return 0, false
}

// Moves implements sched.Program: candidate next cities 1..n-1.
func (t *TSP) Moves(w sched.Workspace, depth int) int { return t.n - 1 }

// Apply implements sched.Program.
func (t *TSP) Apply(w sched.Workspace, depth, m int) bool {
	s := w.(*tspWS)
	city := int32(m + 1)
	if s.visited&(1<<uint(city)) != 0 {
		return false
	}
	s.cost += t.dist[s.perm[len(s.perm)-1]][city]
	s.perm = append(s.perm, city)
	s.visited |= 1 << uint(city)
	return true
}

// Undo implements sched.Program.
func (t *TSP) Undo(w sched.Workspace, depth, m int) {
	s := w.(*tspWS)
	n := len(s.perm) - 1
	city := s.perm[n]
	s.perm = s.perm[:n]
	s.visited &^= 1 << uint(city)
	s.cost -= t.dist[s.perm[n-1]][city]
}

// LastIncumbent returns the final incumbent of the most recent Root() call.
func (t *TSP) LastIncumbent() int64 {
	if inc := t.lastInc.Load(); inc != nil {
		return inc.best.Load()
	}
	return 0
}
