package adaptivetc_test

import (
	"reflect"
	"sort"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/cluster"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

// diffSizes fixes one small instance per registry family — every name in
// problems/registry must appear here, so adding a benchmark without wiring
// it into the differential harness is a test failure, not a silent gap.
var diffSizes = map[string]registry.Params{
	"nqueens-array":   {N: 6},
	"nqueens-compute": {N: 6},
	"sudoku-balanced": {N: 12},
	"sudoku-input1":   {N: 12},
	"sudoku-input2":   {N: 12},
	"sudoku-empty4":   {},
	"strimko":         {N: 5},
	"knight":          {N: 5},
	"pentomino":       {N: 4},
	"fib":             {N: 14},
	"comp":            {N: 64},
	"tree1":           {Size: 2048},
	"tree2":           {Size: 2048},
	"tree3":           {Size: 2048},
	"atc-nqueens":     {N: 6},
	"atc-fib":         {N: 12},
	"atc-latin":       {N: 4},
	"atc-knight":      {N: 4},
	// Dataflow DAGs and branch-and-bound communicate through shared per-run
	// state (dependency counters, the incumbent bound), yet their values are
	// engine- and schedule-independent by construction — so they ride the
	// same value-equality rows as the search families. The first-solution
	// families run here in normal mode, where Value is the order-independent
	// sum of all solution witnesses; their first-solution semantics get
	// dedicated rows in TestDifferentialFirstSolution.
	"dag-layered":   {N: 4, M: 3},
	"dag-stencil":   {N: 4, M: 5},
	"bnb-knapsack":  {N: 12},
	"bnb-tsp":       {N: 6},
	"first-nqueens": {N: 6},
	"first-sat":     {N: 10},
}

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

// diffCorpus builds the instance of every registered family, failing if
// the registry and diffSizes ever drift apart.
func diffCorpus(t *testing.T) map[string]sched.Program {
	t.Helper()
	progs := make(map[string]sched.Program)
	for _, name := range registry.Names() {
		params, ok := diffSizes[name]
		if !ok {
			t.Fatalf("registry program %q has no differential-test size — add it to diffSizes", name)
		}
		p, err := registry.Build(name, params)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		progs[name] = p
	}
	if len(diffSizes) != len(progs) {
		t.Fatalf("diffSizes has %d entries but the registry has %d — remove the stale names", len(diffSizes), len(progs))
	}
	return progs
}

// TestDifferentialBatch runs every registry program through all seven
// pool-capable engines on the deterministic simulator: values must match
// the serial oracle, and each engine's two identically-seeded runs must
// report identical makespans.
func TestDifferentialBatch(t *testing.T) {
	for name, p := range diffCorpus(t) {
		oracle, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatalf("serial/%s: %v", name, err)
		}
		for _, mk := range diffEngines() {
			eng := mk()
			opt := adaptivetc.Options{Workers: 3, Seed: 7}
			a, err := eng.Run(p, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", eng.Name(), name, err)
			}
			if a.Value != oracle.Value {
				t.Errorf("%s/%s: value %d, serial says %d", eng.Name(), name, a.Value, oracle.Value)
			}
			b, err := mk().Run(p, opt)
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", eng.Name(), name, err)
			}
			if a.Makespan != b.Makespan {
				t.Errorf("%s/%s: identically-seeded Sim makespans differ: %d vs %d",
					eng.Name(), name, a.Makespan, b.Makespan)
			}
		}
	}
}

// TestDifferentialStealPolicies sweeps every steal policy across both
// deque variants (THE and lock-reduced) for a representative program slice
// and all seven pool-capable engines: values must match the serial oracle,
// and identically-seeded Sim reruns must stay deterministic — a policy's
// victim sequence is part of the schedule, so nondeterminism here means a
// thief PRNG leaked shared state.
func TestDifferentialStealPolicies(t *testing.T) {
	progs := diffCorpus(t)
	slice := []string{"fib", "nqueens-array", "sudoku-input1", "tree3"}
	for _, name := range slice {
		p, ok := progs[name]
		if !ok {
			t.Fatalf("program %q missing from the corpus", name)
		}
		oracle, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatalf("serial/%s: %v", name, err)
		}
		for _, relaxed := range []bool{false, true} {
			for _, policy := range wsrt.StealPolicyNames() {
				for _, mk := range diffEngines() {
					eng := mk()
					opt := adaptivetc.Options{
						Workers: 3, Seed: 7,
						StealPolicy:  policy,
						RelaxedDeque: relaxed,
					}
					a, err := eng.Run(p, opt)
					if err != nil {
						t.Fatalf("%s/%s policy=%s relaxed=%v: %v", eng.Name(), name, policy, relaxed, err)
					}
					if a.Value != oracle.Value {
						t.Errorf("%s/%s policy=%s relaxed=%v: value %d, serial says %d",
							eng.Name(), name, policy, relaxed, a.Value, oracle.Value)
					}
					b, err := mk().Run(p, opt)
					if err != nil {
						t.Fatalf("%s/%s policy=%s relaxed=%v rerun: %v", eng.Name(), name, policy, relaxed, err)
					}
					if a.Makespan != b.Makespan {
						t.Errorf("%s/%s policy=%s relaxed=%v: identically-seeded Sim makespans differ: %d vs %d",
							eng.Name(), name, policy, relaxed, a.Makespan, b.Makespan)
					}
				}
			}
		}
	}
}

// TestDifferentialCluster runs a representative program slice through 2-
// and 3-node deterministic Sim clusters under skewed load: every job's
// first completion must carry the serial oracle's value, the model's
// conservation invariants must hold, and identically-seeded runs must
// produce byte-identical event logs. The per-job service time is the
// engine's deterministic Sim makespan, so the cluster rows exercise the
// same work distribution the batch rows measure, one level up.
func TestDifferentialCluster(t *testing.T) {
	progs := diffCorpus(t)
	slice := []string{"fib", "nqueens-array", "tree3", "knight"}
	for _, name := range slice {
		p, ok := progs[name]
		if !ok {
			t.Fatalf("program %q missing from the corpus", name)
		}
		oracle, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatalf("serial/%s: %v", name, err)
		}
		cost, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{Workers: 3, Seed: 7})
		if err != nil {
			t.Fatalf("cost run %s: %v", name, err)
		}
		if cost.Value != oracle.Value {
			t.Fatalf("%s: engine value %d, serial says %d", name, cost.Value, oracle.Value)
		}
		svc := int64(cost.Makespan)
		if svc <= 0 {
			svc = 1_000_000
		}
		for _, nodes := range []int{2, 3} {
			jobs := make([]cluster.SimJob, 16)
			for i := range jobs {
				node := 0
				if i%5 == 4 {
					node = 1 + (i/5)%(nodes-1)
				}
				jobs[i] = cluster.SimJob{
					ID: i, Node: node, ArriveNS: int64(i) * svc / 4,
					ServiceNS: svc, Value: oracle.Value,
				}
			}
			run := func() *cluster.SimReport {
				rep, err := cluster.RunSim(cluster.SimConfig{
					Nodes: nodes, Seed: 7,
					BaseLatencyNS: svc/16 + 1, JitterNS: svc/64 + 1, GossipEveryNS: svc/2 + 1,
				}, jobs)
				if err != nil {
					t.Fatalf("cluster/%s/n%d: %v", name, nodes, err)
				}
				return rep
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.Events, b.Events) {
				t.Errorf("cluster/%s/n%d: identically-seeded runs diverged (%d vs %d events)",
					name, nodes, len(a.Events), len(b.Events))
			}
			if len(a.Violations) > 0 {
				t.Errorf("cluster/%s/n%d: violations: %v", name, nodes, a.Violations)
			}
			if a.Completed != len(jobs) {
				t.Errorf("cluster/%s/n%d: %d of %d jobs completed", name, nodes, a.Completed, len(jobs))
			}
			for id, v := range a.Values {
				if v != oracle.Value {
					t.Errorf("cluster/%s/n%d: job %d value %d, serial says %d", name, nodes, id, v, oracle.Value)
				}
			}
			moved := 0
			for _, st := range a.PerNode {
				moved += st.ForwardedIn
			}
			if moved == 0 {
				t.Errorf("cluster/%s/n%d: no job ever moved — the rows don't exercise forwarding", name, nodes)
			}
		}
	}
}

// diffPools returns the two shapes a serving pool takes over four workers:
// one slot, where every job gets all four, and two, where two jobs run side
// by side on the fixed shards [0 1] and [2 3].
func diffPools(t *testing.T) []*wsrt.Pool {
	var pools []*wsrt.Pool
	for _, slots := range []int{1, 2} {
		p := wsrt.NewPool(wsrt.PoolConfig{
			Workers: 4, MaxConcurrentJobs: slots,
			QueueCapacity: 16, Options: sched.Options{GrowableDeque: true},
		})
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

// TestDifferentialShardedPool pushes the same program×engine matrix
// through resident pools — the serving path, with up to two jobs in flight,
// on the whole pool or on disjoint shards (diffPools; programs alternate
// between the two) — and checks every value against the serial oracle.
func TestDifferentialShardedPool(t *testing.T) {
	progs := diffCorpus(t)
	oracles := make(map[string]int64, len(progs))
	names := make([]string, 0, len(progs))
	for name, p := range progs {
		res, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatalf("serial/%s: %v", name, err)
		}
		oracles[name] = res.Value
		names = append(names, name)
	}
	sort.Strings(names)
	pools := diffPools(t)

	type pending struct {
		name, engine string
		width        int
		h            *wsrt.JobHandle
	}
	var window []pending
	drain := func(all bool) {
		keep := 0
		if !all {
			keep = 2 // leave the in-flight jobs cooking, reap the rest
		}
		for len(window) > keep {
			job := window[0]
			window = window[1:]
			res, err := job.h.Result()
			if err != nil {
				t.Fatalf("pool %s/%s: %v", job.engine, job.name, err)
			}
			if res.Value != oracles[job.name] {
				t.Errorf("pool %s/%s: value %d, serial says %d",
					job.engine, job.name, res.Value, oracles[job.name])
			}
			if len(res.Shard) != job.width {
				t.Errorf("pool %s/%s: ran on shard %v, want width %d", job.engine, job.name, res.Shard, job.width)
			}
		}
	}
	for i, name := range names {
		pool := pools[i%len(pools)]
		for _, mk := range diffEngines() {
			eng := mk()
			pe, ok := eng.(wsrt.PoolEngine)
			if !ok {
				t.Fatalf("%s does not implement wsrt.PoolEngine", eng.Name())
			}
			h, err := pool.Submit(wsrt.JobSpec{Prog: progs[name], Engine: pe})
			if err != nil {
				t.Fatalf("submit %s/%s: %v", eng.Name(), name, err)
			}
			width := pool.Workers() / pool.MaxConcurrentJobs()
			window = append(window, pending{name: name, engine: eng.Name(), width: width, h: h})
			drain(false)
		}
	}
	drain(true)
}

// dslDiffSizes shrinks the shipped DSL examples to differential-test
// instances, matching the atc-* rows in diffSizes so the cached-program
// path is checked at the same sizes the registry mirrors are.
var dslDiffSizes = map[string]map[string]int64{
	"nqueens": {"n": 6},
	"fib":     {"n": 12},
	"latin":   {"n": 4},
	"knight":  {"n": 4},
}

// TestDifferentialDSL runs every shipped DSL example through the
// content-addressed compile cache — the same Put/Program path that backs
// POST /programs and program_hash job submission — and pushes each cached
// instance through all seven pool engines and the resident sharded pool,
// checking values against a serial oracle run on the very same Program.
// Along the way it pins content addressing: the canonical form of a source
// must land on the hash the original did, never a second cache entry.
func TestDifferentialDSL(t *testing.T) {
	store := progstore.New(progstore.Config{})
	type row struct {
		name, hash string
		prog       sched.Program
		oracle     int64
	}
	var rows []row
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
		oracle, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatalf("serial/%s: %v", name, err)
		}
		rows = append(rows, row{name: name, hash: meta.Hash, prog: p, oracle: oracle.Value})
	}
	if len(rows) != len(dslDiffSizes) {
		t.Fatalf("dslDiffSizes has %d entries but lang ships %d examples — remove the stale names",
			len(dslDiffSizes), len(rows))
	}

	// Batch rows: each engine on the shared cached instance, plus the
	// seeded-makespan determinism check every other family gets.
	for _, r := range rows {
		for _, mk := range diffEngines() {
			eng := mk()
			opt := adaptivetc.Options{Workers: 3, Seed: 7}
			a, err := eng.Run(r.prog, opt)
			if err != nil {
				t.Fatalf("%s/dsl:%s: %v", eng.Name(), r.name, err)
			}
			if a.Value != r.oracle {
				t.Errorf("%s/dsl:%s: value %d, serial says %d", eng.Name(), r.name, a.Value, r.oracle)
			}
			b, err := mk().Run(r.prog, opt)
			if err != nil {
				t.Fatalf("%s/dsl:%s rerun: %v", eng.Name(), r.name, err)
			}
			if a.Makespan != b.Makespan {
				t.Errorf("%s/dsl:%s: identically-seeded Sim makespans differ: %d vs %d",
					eng.Name(), r.name, a.Makespan, b.Makespan)
			}
		}
	}

	// Sharded-pool rows: up to two jobs in flight share one cached Program
	// instance — the serving-path concurrency a compile cache must survive —
	// on the whole pool or on disjoint shards, rows alternating (diffPools).
	pools := diffPools(t)

	type pending struct {
		name, engine string
		oracle       int64
		h            *wsrt.JobHandle
	}
	var window []pending
	drain := func(all bool) {
		keep := 0
		if !all {
			keep = 2
		}
		for len(window) > keep {
			job := window[0]
			window = window[1:]
			res, err := job.h.Result()
			if err != nil {
				t.Fatalf("pool %s/dsl:%s: %v", job.engine, job.name, err)
			}
			if res.Value != job.oracle {
				t.Errorf("pool %s/dsl:%s: value %d, serial says %d",
					job.engine, job.name, res.Value, job.oracle)
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
				t.Fatalf("submit %s/dsl:%s: %v", eng.Name(), r.name, err)
			}
			window = append(window, pending{name: r.name, engine: eng.Name(), oracle: r.oracle, h: h})
			drain(false)
		}
	}
	drain(true)
}
