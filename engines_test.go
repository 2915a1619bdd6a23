package adaptivetc_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/vtime"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/comp"
	"adaptivetc/problems/fib"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/pentomino"
	"adaptivetc/problems/strimko"
	"adaptivetc/problems/sudoku"
	"adaptivetc/problems/synthtree"
)

// corpus is the differential-testing workload: one small instance of every
// benchmark family.
func corpus() []adaptivetc.Program {
	t3 := synthtree.Tree3(30000)
	t3.Seed = 5
	atcProg, err := adaptivetc.CompileATC("nqueens", adaptivetc.ATCSources()["nqueens"], map[string]int64{"n": 7})
	if err != nil {
		panic(err)
	}
	return []adaptivetc.Program{
		atcProg,
		nqueens.NewArray(8),
		nqueens.NewCompute(7),
		sudoku.Empty(2),
		sudoku.Input1(3, 50),
		strimko.Diagonal(5, 0),
		knight.NewRect(5, 4, 0, 0),
		pentomino.NewBoard(5, 4, "LNPY", "t"),
		fib.New(16),
		comp.New(200),
		synthtree.New(t3),
	}
}

func parallelEngines() []adaptivetc.Engine {
	return []adaptivetc.Engine{
		adaptivetc.NewCilk(),
		adaptivetc.NewCilkSynched(),
		adaptivetc.NewTascell(),
		adaptivetc.NewAdaptiveTC(),
		adaptivetc.NewCutoffProgrammer(),
		adaptivetc.NewCutoffLibrary(),
		adaptivetc.NewHelpFirst(),
		adaptivetc.NewSLAW(),
	}
}

// TestEnginesMatchSerial is the central differential test: every engine,
// every problem, several worker counts, on the deterministic simulator.
func TestEnginesMatchSerial(t *testing.T) {
	for _, p := range corpus() {
		want, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatalf("serial/%s: %v", p.Name(), err)
		}
		for _, e := range parallelEngines() {
			for _, workers := range []int{1, 2, 3, 4, 8, 16} {
				res, err := e.Run(p, adaptivetc.Options{Workers: workers, Seed: int64(workers)})
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", e.Name(), p.Name(), workers, err)
				}
				if res.Value != want.Value {
					t.Errorf("%s/%s P=%d: value %d, serial says %d",
						e.Name(), p.Name(), workers, res.Value, want.Value)
				}
			}
		}
	}
}

// TestEnginesRealPlatform re-runs a subset on real goroutines (use -race).
func TestEnginesRealPlatform(t *testing.T) {
	progs := []adaptivetc.Program{
		nqueens.NewArray(8),
		sudoku.Input1(3, 48),
		fib.New(15),
	}
	for _, p := range progs {
		want, _ := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		for _, e := range parallelEngines() {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := e.Run(p, adaptivetc.Options{
					Workers:  8,
					Platform: adaptivetc.NewRealPlatform(seed),
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", e.Name(), p.Name(), err)
				}
				if res.Value != want.Value {
					t.Errorf("%s/%s seed=%d: value %d, serial says %d",
						e.Name(), p.Name(), seed, res.Value, want.Value)
				}
			}
		}
	}
}

// TestSimDeterminism: identical options must give identical makespans and
// counters on the simulator.
func TestSimDeterminism(t *testing.T) {
	p := nqueens.NewArray(9)
	for _, e := range parallelEngines() {
		a, err := e.Run(p, adaptivetc.Options{Workers: 6, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(p, adaptivetc.Options{Workers: 6, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan != b.Makespan || a.Stats != b.Stats {
			t.Errorf("%s: runs differ: %v vs %v / %+v vs %+v",
				e.Name(), a.Makespan, b.Makespan, a.Stats, b.Stats)
		}
	}
}

// TestAdaptiveCreatesFewerTasks checks the paper's headline mechanism: far
// fewer tasks and workspace copies than Cilk, without losing parallelism.
func TestAdaptiveCreatesFewerTasks(t *testing.T) {
	p := nqueens.NewArray(10)
	opt := adaptivetc.Options{Workers: 8, Seed: 2}
	cilk, err := adaptivetc.NewCilk().Run(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	atc, err := adaptivetc.NewAdaptiveTC().Run(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if atc.Stats.TasksCreated*5 > cilk.Stats.TasksCreated {
		t.Errorf("adaptivetc created %d tasks vs cilk %d — expected far fewer",
			atc.Stats.TasksCreated, cilk.Stats.TasksCreated)
	}
	if atc.Stats.WorkspaceCopies*5 > cilk.Stats.WorkspaceCopies {
		t.Errorf("adaptivetc copied %d workspaces vs cilk %d — expected far fewer",
			atc.Stats.WorkspaceCopies, cilk.Stats.WorkspaceCopies)
	}
	if atc.Makespan >= cilk.Makespan {
		t.Errorf("adaptivetc makespan %d not better than cilk %d", atc.Makespan, cilk.Makespan)
	}
}

// TestSpecialTasksFire forces starvation-driven special tasks by making the
// need_task threshold hair-trigger on a lopsided tree, and checks both that
// specials appear and that the answer stays right.
func TestSpecialTasksFire(t *testing.T) {
	spec := synthtree.Tree3(60000)
	spec.Seed = 3
	p := synthtree.New(spec)
	res, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{
		Workers:      8,
		MaxStolenNum: 1,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != spec.Size {
		t.Fatalf("value = %d, want %d", res.Value, spec.Size)
	}
	if res.Stats.SpecialTasks == 0 {
		t.Fatal("no special tasks fired on a starving unbalanced tree")
	}
	if res.Stats.Steals == 0 {
		t.Fatal("no steals at all")
	}
	t.Logf("specials=%d steals=%d fails=%d tasks=%d fake=%d",
		res.Stats.SpecialTasks, res.Stats.Steals, res.Stats.StealFails,
		res.Stats.TasksCreated, res.Stats.FakeTasks)
}

// TestDequeOverflowSurfaces: a pathologically tiny deque must produce the
// documented error, not a crash or a wrong answer.
func TestDequeOverflowSurfaces(t *testing.T) {
	p := nqueens.NewArray(9)
	_, err := adaptivetc.NewCilk().Run(p, adaptivetc.Options{Workers: 2, DequeCapacity: 4})
	if !errors.Is(err, sched.ErrDequeOverflow) {
		t.Fatalf("err = %v, want ErrDequeOverflow", err)
	}
}

// TestProfileBreakdown: with profiling on, the phase breakdown must roughly
// cover the workers' total time and contain no negative residual.
func TestProfileBreakdown(t *testing.T) {
	p := nqueens.NewArray(9)
	for _, e := range parallelEngines() {
		res, err := e.Run(p, adaptivetc.Options{Workers: 4, Profile: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.WorkerTime <= 0 {
			t.Errorf("%s: no worker time", e.Name())
			continue
		}
		if st.WorkTime < 0 {
			t.Errorf("%s: negative working residual %d (worker=%d copy=%d deque=%d poll=%d wait=%d steal=%d respond=%d)",
				e.Name(), st.WorkTime, st.WorkerTime, st.CopyTime, st.DequeTime,
				st.PollTime, st.WaitTime, st.StealTime, st.RespondTime)
		}
	}
}

// TestCilkSuspends: on a deep unbalanced tree with many workers, Cilk's
// sync rule must actually suspend tasks (unlike Tascell, which waits).
func TestCilkSuspends(t *testing.T) {
	spec := synthtree.Tree2(50000)
	p := synthtree.New(spec)
	res, err := adaptivetc.NewCilk().Run(p, adaptivetc.Options{Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Suspends == 0 {
		t.Error("cilk never suspended a waiting task")
	}
}

// TestTascellWaits: Tascell must record wait_children time where Cilk
// records none of that kind.
func TestTascellWaits(t *testing.T) {
	spec := synthtree.Tree3(60000) // right-heavy would be worse; L is enough
	p := synthtree.New(spec)
	res, err := adaptivetc.NewTascell().Run(p, adaptivetc.Options{Workers: 8, Profile: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steals == 0 {
		t.Fatal("tascell made no steals")
	}
	if res.Stats.WaitTime == 0 {
		t.Error("tascell recorded no wait_children time on an unbalanced tree")
	}
}

// TestWorkerSweep: answers stay correct for every worker count 1..12 on an
// irregular tree (off-by-one hunting in victim selection etc.).
func TestWorkerSweep(t *testing.T) {
	p := sudoku.Input2(3, 50)
	want, _ := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
	for workers := 1; workers <= 12; workers++ {
		for _, e := range parallelEngines() {
			res, err := e.Run(p, adaptivetc.Options{Workers: workers, Seed: int64(100 + workers)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != want.Value {
				t.Errorf("%s P=%d: %d != %d", e.Name(), workers, res.Value, want.Value)
			}
		}
	}
}

// TestEngineByName round-trips every engine.
func TestEngineByName(t *testing.T) {
	for _, e := range append(adaptivetc.Engines(), adaptivetc.ExtensionEngines()...) {
		got, err := adaptivetc.EngineByName(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != e.Name() {
			t.Errorf("round trip %q -> %q", e.Name(), got.Name())
		}
	}
	_, err := adaptivetc.EngineByName("nope")
	if err == nil {
		t.Fatal("unknown engine name accepted")
	}
	for _, name := range adaptivetc.EngineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error %q does not list %q", err, name)
		}
	}
}

// TestEngineTable pins the one table every front end resolves names through:
// ten unique names, each resolving to the row that carries it; Engines() still
// serial plus the paper's six in the order benchmark/papersim.go slices; and
// the pool-capable rows — a type assertion, not a list — exactly the seven
// that TestDifferentialPool drives and GET /catalog advertises.
func TestEngineTable(t *testing.T) {
	names := adaptivetc.EngineNames()
	want := []string{"serial", "cilk", "cilk-synched", "tascell", "adaptivetc",
		"cutoff-programmer", "cutoff-library", "helpfirst", "slaw", "tascell-single"}
	if !slices.Equal(names, want) {
		t.Fatalf("EngineNames() = %v, want %v", names, want)
	}
	var paper, pool []string
	for _, e := range adaptivetc.Engines() {
		paper = append(paper, e.Name())
	}
	if !slices.Equal(paper, want[:7]) {
		t.Errorf("Engines() = %v, want %v", paper, want[:7])
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("engine name %q appears twice", name)
		}
		seen[name] = true
		e, err := adaptivetc.EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Errorf("EngineByName(%q).Name() = %q", name, e.Name())
		}
		if _, ok := e.(wsrt.PoolEngine); ok {
			pool = append(pool, name)
		}
	}
	var diff []string
	for _, mk := range diffEngines() {
		diff = append(diff, mk().Name())
	}
	slices.Sort(pool)
	slices.Sort(diff)
	if !slices.Equal(pool, diff) || !slices.Equal(pool, adaptivetc.PoolEngineNames()) {
		t.Errorf("pool-capable rows %v; difftest drives %v; PoolEngineNames() = %v", pool, diff, adaptivetc.PoolEngineNames())
	}
	if len(pool) != 7 {
		t.Errorf("%d pool-capable engines, want 7: %v", len(pool), pool)
	}
}

// TestForcedCutoffAblation: forcing a deeper cutoff must create more tasks.
func TestForcedCutoffAblation(t *testing.T) {
	p := nqueens.NewArray(10)
	shallow, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{
		Workers: 4, ForceCutoff: true, Cutoff: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{
		Workers: 4, ForceCutoff: true, Cutoff: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Stats.TasksCreated <= shallow.Stats.TasksCreated {
		t.Errorf("cutoff 6 created %d tasks, cutoff 1 created %d — expected more with deeper cutoff",
			deep.Stats.TasksCreated, shallow.Stats.TasksCreated)
	}
	if shallow.Value != deep.Value {
		t.Errorf("values differ across cutoffs: %d vs %d", shallow.Value, deep.Value)
	}
}

// TestGrowableDequeAvoidsOverflow: the same configuration that overflows a
// fixed deque completes with a growable one (the related-work remedy).
func TestGrowableDequeAvoidsOverflow(t *testing.T) {
	p := nqueens.NewArray(9)
	want := nqueens.Solutions(9)
	_, err := adaptivetc.NewCilk().Run(p, adaptivetc.Options{Workers: 2, DequeCapacity: 4})
	if !errors.Is(err, sched.ErrDequeOverflow) {
		t.Fatalf("fixed deque: err = %v, want overflow", err)
	}
	res, err := adaptivetc.NewCilk().Run(p, adaptivetc.Options{Workers: 2, DequeCapacity: 4, GrowableDeque: true})
	if err != nil {
		t.Fatalf("growable deque: %v", err)
	}
	if res.Value != want {
		t.Fatalf("growable deque value %d, want %d", res.Value, want)
	}
}

// TestGrowableDequeAllEngines runs every engine with tiny growable deques.
func TestGrowableDequeAllEngines(t *testing.T) {
	p := sudoku.Input1(3, 48)
	wantRes, _ := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
	for _, e := range parallelEngines() {
		res, err := e.Run(p, adaptivetc.Options{Workers: 8, DequeCapacity: 8, GrowableDeque: true, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Value != wantRes.Value {
			t.Errorf("%s: value %d, want %d", e.Name(), res.Value, wantRes.Value)
		}
	}
}

// TestATCMatchesNativePrograms cross-checks the mini-language
// implementations against the native Go ones.
func TestATCMatchesNativePrograms(t *testing.T) {
	cases := []struct {
		atcName   string
		overrides map[string]int64
		native    adaptivetc.Program
	}{
		{"nqueens", map[string]int64{"n": 8}, nqueens.NewArray(8)},
		{"fib", map[string]int64{"n": 16}, fib.New(16)},
		{"knight", map[string]int64{"n": 5}, knight.New(5)},
		{"latin", map[string]int64{"n": 4}, strimko.LatinSquares(4)},
	}
	for _, c := range cases {
		atcProg, err := adaptivetc.CompileATC(c.atcName, adaptivetc.ATCSources()[c.atcName], c.overrides)
		if err != nil {
			t.Fatalf("%s: %v", c.atcName, err)
		}
		a, err := adaptivetc.NewSerial().Run(atcProg, adaptivetc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := adaptivetc.NewSerial().Run(c.native, adaptivetc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Value != n.Value {
			t.Errorf("%s: atc says %d, native says %d", c.atcName, a.Value, n.Value)
		}
		// And under the AdaptiveTC scheduler with 8 workers.
		par, err := adaptivetc.NewAdaptiveTC().Run(atcProg, adaptivetc.Options{Workers: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if par.Value != n.Value {
			t.Errorf("%s parallel: atc says %d, native says %d", c.atcName, par.Value, n.Value)
		}
	}
}

// TestQuantumInsensitivity: the simulator's slice quantum is a performance
// knob, not a semantics knob — makespans may shift slightly (slices change
// steal interleavings) but values must hold and makespans stay in a band.
func TestQuantumInsensitivity(t *testing.T) {
	p := nqueens.NewArray(9)
	want := nqueens.Solutions(9)
	var spans []float64
	for _, quantum := range []int64{100, 500, 2000} {
		plat := &vtime.Sim{Seed: 5, Quantum: quantum}
		res, err := adaptivetc.NewAdaptiveTC().Run(p, adaptivetc.Options{Workers: 8, Platform: plat})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("quantum %d: value %d", quantum, res.Value)
		}
		spans = append(spans, float64(res.Makespan))
	}
	for _, s := range spans[1:] {
		if ratio := s / spans[0]; ratio < 0.5 || ratio > 2 {
			t.Errorf("makespans drift too much across quanta: %v", spans)
		}
	}
}
