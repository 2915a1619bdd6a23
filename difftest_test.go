package adaptivetc_test

import (
	"slices"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/registry"
)

// diffSizes fixes one instance per registry family — every name in
// problems/registry must appear here or in diffBuilds, so adding a benchmark
// without wiring it into the differential harness is a test failure, not a
// silent gap. Each instance is sized into the node band (diffMinNodes).
var diffSizes = map[string]registry.Params{
	"nqueens-array":   {N: 8},
	"nqueens-compute": {N: 8},
	"sudoku-balanced": {N: 40},
	"sudoku-input1":   {N: 46},
	"sudoku-input2":   {N: 40},
	"sudoku-empty4":   {},
	"strimko":         {N: 12},
	"pentomino":       {N: 6},
	"fib":             {N: 14},
	"comp":            {N: 4000},
	"tree1":           {Size: 2048},
	"tree2":           {Size: 2048},
	"tree3":           {Size: 2048},
	"atc-nqueens":     {N: 8},
	"atc-fib":         {N: 14},
	"atc-latin":       {N: 4},
	"atc-knight":      {N: 4},
	// Dataflow DAGs and branch-and-bound communicate through shared per-run
	// state (dependency counters, the incumbent bound), yet their values are
	// engine- and schedule-independent by construction — so they ride the
	// same value-equality rows as the search families. The first-solution
	// families run here in normal mode, where Value is the order-independent
	// sum of all solution witnesses; their first-solution semantics get
	// dedicated rows in TestDifferentialFirstSolution.
	"dag-layered":   {N: 16, M: 32},
	"dag-stencil":   {N: 16, M: 16},
	"bnb-knapsack":  {N: 12},
	"bnb-tsp":       {N: 7},
	"first-nqueens": {N: 8},
	"first-sat":     {N: 12},
}

// diffBuilds builds the registry families that no registry size puts in the
// band: the registry's knight boards are square, and 4×4 has no tour while
// 5×5 is 1.7 M nodes, so the row is a 5×4 board (35 661 nodes, 32 tours).
var diffBuilds = map[string]func() sched.Program{
	"knight": func() sched.Program { return knight.NewRect(5, 4, 0, 0) },
}

// dslDiffSizes sizes the shipped DSL examples, matching the atc-* rows in
// diffSizes so the cached-program path is checked at the same sizes the
// registry mirrors are.
var dslDiffSizes = map[string]map[string]int64{
	"nqueens": {"n": 8},
	"fib":     {"n": 14},
	"latin":   {"n": 4},
	"knight":  {"n": 4},
}

// diffMinNodes and diffMaxNodes bound every row's tree, by sched.Analyze. A
// smaller tree gives thieves nothing to steal (comp 64 was one node, and no
// engine stole on it); a larger one costs more than the rest of the matrix
// (strimko with 5 givens, 4.1 M nodes, took 15 of its 22 s, and the matrix
// took 458 s and 523 s in two -race runs on a 2-CPU host).
const diffMinNodes, diffMaxNodes = 500, 40_000

// diffZero names the rows whose serial oracle is 0, each with the reason no
// instance in the band has a nonzero one. Any other row needs a nonzero
// oracle: at 0, an engine that loses a subtree still matches.
var diffZero = map[string]string{
	"atc-knight": squareKnight,
	"dsl:knight": squareKnight,
}

const squareKnight = "the DSL board is square: 4×4 has no tour and 5×5 is 1.7 M nodes; TestATCMatchesNativePrograms checks 5×5"

// diffEngines are the seven pool-capable schedulers: every engine the
// serving path can host, each built fresh per use (Tascell and Serial are
// batch-only and are covered by TestEnginesMatchSerial).
func diffEngines() []func() adaptivetc.Engine {
	return []func() adaptivetc.Engine{
		adaptivetc.NewAdaptiveTC,
		adaptivetc.NewCilk,
		adaptivetc.NewCilkSynched,
		adaptivetc.NewCutoffProgrammer,
		adaptivetc.NewCutoffLibrary,
		adaptivetc.NewHelpFirst,
		adaptivetc.NewSLAW,
	}
}

// diffRow is one instance of the differential matrix and its serial answer.
type diffRow struct {
	name   string // the registry name, or "dsl:" and the example's name
	prog   sched.Program
	oracle int64
}

// newDiffRow runs the serial oracle on p. It fails unless p's tree is in the
// node band and the oracle is nonzero, or diffZero says why it cannot be.
func newDiffRow(t *testing.T, name string, p sched.Program) diffRow {
	t.Helper()
	if st := sched.Analyze(p, diffMaxNodes); st.Truncated || st.Nodes < diffMinNodes {
		t.Fatalf("%s: %d nodes (truncated %v), want %d to %d — resize the row", name, st.Nodes, st.Truncated, diffMinNodes, diffMaxNodes)
	}
	res, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
	if err != nil {
		t.Fatalf("serial/%s: %v", name, err)
	}
	switch reason := diffZero[name]; {
	case res.Value == 0 && reason == "":
		t.Fatalf("%s: serial value 0, so a lost subtree cannot show — resize the row or give the reason in diffZero", name)
	case res.Value != 0 && reason != "":
		t.Fatalf("%s: serial value %d, yet diffZero says %q — drop the entry", name, res.Value, reason)
	}
	return diffRow{name: name, prog: p, oracle: res.Value}
}

// diffCorpus builds the row of every registered family, sorted by name,
// failing if the registry and diffSizes / diffBuilds ever drift apart.
func diffCorpus(t *testing.T) []diffRow {
	t.Helper()
	var rows []diffRow
	for _, name := range registry.Names() {
		var p sched.Program
		if build, ok := diffBuilds[name]; ok {
			p = build()
		} else if params, ok := diffSizes[name]; ok {
			var err error
			if p, err = registry.Build(name, params); err != nil {
				t.Fatalf("build %s: %v", name, err)
			}
		} else {
			t.Fatalf("registry program %q has no differential-test size — add it to diffSizes", name)
		}
		rows = append(rows, newDiffRow(t, name, p))
	}
	if n := len(diffSizes) + len(diffBuilds); n != len(rows) {
		t.Fatalf("diffSizes and diffBuilds have %d entries but the registry has %d — remove the stale names", n, len(rows))
	}
	return rows
}

// checkSim runs r on all seven pool engines on the Sim under opt, twice
// each: every value must match the serial oracle, and each engine's two
// identically-seeded runs must report identical makespans.
func checkSim(t *testing.T, r diffRow, opt adaptivetc.Options) {
	t.Helper()
	for _, mk := range diffEngines() {
		eng := mk()
		a, err := eng.Run(r.prog, opt)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if a.Value != r.oracle {
			t.Errorf("%s: value %d, serial says %d", eng.Name(), a.Value, r.oracle)
		}
		b, err := mk().Run(r.prog, opt)
		if err != nil {
			t.Fatalf("%s rerun: %v", eng.Name(), err)
		}
		if a.Makespan != b.Makespan {
			t.Errorf("%s: identically-seeded Sim makespans differ: %d vs %d", eng.Name(), a.Makespan, b.Makespan)
		}
	}
}

// checkPools pushes every row through all seven pool engines on resident
// pools over four workers — the serving path — and checks every value
// against the serial oracle. Rows alternate between a one-slot pool, where
// every job gets all four workers, and a two-slot pool, where two jobs run
// side by side on the fixed shards [0 1] and [2 3]; up to two jobs are in
// flight at a time.
func checkPools(t *testing.T, rows []diffRow) {
	t.Helper()
	var pools []*wsrt.Pool
	for _, slots := range []int{1, 2} {
		p := wsrt.NewPool(wsrt.PoolConfig{
			Workers: 4, MaxConcurrentJobs: slots,
			QueueCapacity: 16, Options: sched.Options{GrowableDeque: true},
		})
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	type pending struct {
		row    diffRow
		engine string
		width  int
		h      *wsrt.JobHandle
	}
	var window []pending
	drain := func(keep int) {
		for len(window) > keep {
			job := window[0]
			window = window[1:]
			res, err := job.h.Result()
			if err != nil {
				t.Fatalf("pool %s/%s: %v", job.engine, job.row.name, err)
			}
			if res.Value != job.row.oracle {
				t.Errorf("pool %s/%s: value %d, serial says %d", job.engine, job.row.name, res.Value, job.row.oracle)
			}
			if len(res.Shard) != job.width {
				t.Errorf("pool %s/%s: ran on shard %v, want width %d", job.engine, job.row.name, res.Shard, job.width)
			}
		}
	}
	for i, r := range rows {
		pool := pools[i%len(pools)]
		for _, mk := range diffEngines() {
			eng := mk()
			pe, ok := eng.(wsrt.PoolEngine)
			if !ok {
				t.Fatalf("%s does not implement wsrt.PoolEngine", eng.Name())
			}
			h, err := pool.Submit(wsrt.JobSpec{Prog: r.prog, Engine: pe})
			if err != nil {
				t.Fatalf("submit %s/%s: %v", eng.Name(), r.name, err)
			}
			width := pool.Workers() / pool.MaxConcurrentJobs()
			window = append(window, pending{row: r, engine: eng.Name(), width: width, h: h})
			drain(2) // leave the in-flight jobs cooking, reap the rest
		}
	}
	drain(0)
}

// TestDifferentialBatch runs every registry program through all seven
// pool-capable engines on the deterministic simulator (checkSim).
func TestDifferentialBatch(t *testing.T) {
	for _, r := range diffCorpus(t) {
		t.Run(r.name, func(t *testing.T) { checkSim(t, r, adaptivetc.Options{Workers: 3, Seed: 7}) })
	}
}

// TestDifferentialStealPolicies sweeps every steal policy across both
// deque variants (THE and lock-reduced) for a representative program slice
// and all seven pool-capable engines: values must match the serial oracle,
// and identically-seeded Sim reruns must stay deterministic — a policy's
// victim sequence is part of the schedule, so nondeterminism here means a
// thief PRNG leaked shared state.
func TestDifferentialStealPolicies(t *testing.T) {
	corpus := diffCorpus(t)
	for _, name := range []string{"fib", "nqueens-array", "sudoku-input1", "tree3"} {
		i := slices.IndexFunc(corpus, func(r diffRow) bool { return r.name == name })
		if i < 0 {
			t.Fatalf("program %q missing from the corpus", name)
		}
		r := corpus[i]
		for deque, relaxed := range map[string]bool{"THE": false, "relaxed": true} {
			for _, policy := range wsrt.StealPolicyNames() {
				t.Run(r.name+"/"+policy+"/"+deque, func(t *testing.T) {
					checkSim(t, r, adaptivetc.Options{Workers: 3, Seed: 7, StealPolicy: policy, RelaxedDeque: relaxed})
				})
			}
		}
	}
}

// TestDifferentialShardedPool pushes every registry program through the
// resident pools (checkPools).
func TestDifferentialShardedPool(t *testing.T) {
	checkPools(t, diffCorpus(t))
}

// TestDifferentialDSL runs every shipped DSL example through the
// content-addressed compile cache — the same Put/Program path that backs
// POST /programs and program_hash job submission — and pushes each cached
// instance through checkSim and checkPools, where up to two jobs in flight
// share one cached Program instance: the serving-path concurrency a compile
// cache must survive. Along the way it pins content addressing: the
// canonical form of a source must land on the hash the original did, never
// a second cache entry.
func TestDifferentialDSL(t *testing.T) {
	store := progstore.New(progstore.Config{})
	var rows []diffRow
	for name, src := range lang.Sources() {
		sizes, ok := dslDiffSizes[name]
		if !ok {
			t.Fatalf("DSL example %q has no differential-test size — add it to dslDiffSizes", name)
		}
		meta, created, err := store.Put(name, src)
		if err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		if !created {
			t.Fatalf("put %s: fresh store claims the program was already cached", name)
		}
		_, canonical, lerr := lang.HashSource(src)
		if lerr != nil {
			t.Fatalf("canonicalize %s: %v", name, lerr)
		}
		again, createdAgain, err := store.Put(name+"-canon", canonical)
		if err != nil {
			t.Fatalf("put canonical %s: %v", name, err)
		}
		if createdAgain || again.Hash != meta.Hash {
			t.Fatalf("%s: canonical form hashed to %s (created=%v), original to %s — content addressing is broken",
				name, again.Hash, createdAgain, meta.Hash)
		}
		p, err := store.Program(meta.Hash, sizes)
		if err != nil {
			t.Fatalf("program %s: %v", name, err)
		}
		rows = append(rows, newDiffRow(t, "dsl:"+name, p))
	}
	if len(rows) != len(dslDiffSizes) {
		t.Fatalf("dslDiffSizes has %d entries but lang ships %d examples — remove the stale names",
			len(dslDiffSizes), len(rows))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkSim(t, r, adaptivetc.Options{Workers: 3, Seed: 7}) })
	}
	checkPools(t, rows)
}
