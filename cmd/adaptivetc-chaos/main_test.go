package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/cluster"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
)

// The chaos contract, pinned. Every row below is a replay tuple that runs
// through the soak's own runner (runSim, classify, clusterCase), so what
// tier-1 asserts is what `adaptivetc-chaos` ships: a case completes with
// the serial oracle's value and a clean trace, or aborts with a known
// class and a truncation-clean trace, and nothing else. Seeds are pinned,
// and the Sim platform makes each case a pure function of its tuple, so
// `adaptivetc-chaos -replay <tuple>` reproduces any failing row.

// seedsFor returns the generic seeds of scenario index si: the clean path
// that complements the pinned trigger tuples.
func seedsFor(si, n int) []int64 {
	seeds := make([]int64, n)
	for k := range seeds {
		seeds[k] = 20100424 + int64(si*1009+k*101)
	}
	return seeds
}

// simRow runs one tuple through runSim, as the soak and -replay do, and
// fails the test if the verdict is outside the contract.
func simRow(t *testing.T, orc *oracles, tuple string) (verdict, *simOutcome) {
	t.Helper()
	c, err := parseTuple(tuple)
	if err != nil {
		t.Fatal(err)
	}
	v, o := runSim(c, orc)
	if v.err != nil {
		t.Errorf("%s: %v", tuple, v.err)
	}
	return v, o
}

// pinnedAborts runs tuples at which a low-rate fault is known to fire
// mid-run (found by exhaustive scan, deterministic on Sim). Each must
// abort: a fault plane that never injects proves nothing. Every engine
// needs a pinned tuple for each (program, scenario) the list pins.
func pinnedAborts(t *testing.T, orc *oracles, engines []string, tuples ...string) {
	t.Helper()
	pinned := map[[3]string]bool{}
	for _, tuple := range tuples {
		v, _ := simRow(t, orc, tuple)
		if v.class != "aborted" {
			t.Errorf("%s: pinned trigger %s; the injection or the pin has rotted", tuple, v.class)
		}
		pinned[[3]string{v.c.prog.String(), v.c.scenario, v.c.engine}] = true
	}
	for key := range pinned {
		for _, e := range engines {
			if !pinned[[3]string{key[0], key[1], e}] {
				t.Errorf("%s has no pinned %s/%s tuple", e, key[0], key[1])
			}
		}
	}
}

func noLeak(t *testing.T, base int) {
	t.Helper()
	if n := leakedGoroutines(base); n > 0 {
		t.Errorf("%d goroutines leaked", n)
	}
}

// TestChaosEngines drives all seven traced engines through the four core
// fault scenarios. Steal-burst and stall only perturb the schedule, so
// they complete every row; each engine's pinned panic and overflow tuples
// must abort.
func TestChaosEngines(t *testing.T) {
	base := runtime.NumGoroutine()
	orc := &oracles{}
	engines := adaptivetc.PoolEngineNames()
	pinnedAborts(t, orc, engines,
		"sim/w4/cilk/nqueens-array=6/panic/7",
		"sim/w4/cilk-synched/nqueens-array=6/panic/7",
		"sim/w4/cutoff-programmer/nqueens-array=6/panic/73",
		"sim/w4/cutoff-library/nqueens-array=6/panic/7",
		"sim/w4/adaptivetc/nqueens-array=6/panic/7",
		"sim/w4/helpfirst/nqueens-array=6/panic/7",
		"sim/w4/slaw/nqueens-array=6/panic/7",
		"sim/w4/cilk/nqueens-array=6/overflow/11",
		"sim/w4/cilk-synched/nqueens-array=6/overflow/11",
		"sim/w4/cutoff-programmer/nqueens-array=6/overflow/56",
		"sim/w4/cutoff-library/nqueens-array=6/overflow/68",
		"sim/w4/adaptivetc/nqueens-array=6/overflow/56",
		"sim/w4/helpfirst/nqueens-array=6/overflow/11",
		"sim/w4/slaw/nqueens-array=6/overflow/11",
	)
	for _, eng := range engines {
		for si, scen := range []string{"steal-burst", "stall", "panic", "overflow"} {
			for _, seed := range seedsFor(si, 3) {
				tuple := fmt.Sprintf("sim/w4/%s/nqueens-array=6/%s/%d", eng, scen, seed)
				if v, _ := simRow(t, orc, tuple); si < 2 && v.class != "completed" {
					t.Errorf("%s: %s; schedule perturbation must not break runs", tuple, v.class)
				}
			}
		}
	}
	noLeak(t, base)
}

// TestChaosTascell holds Tascell, which records no trace, to the value half
// of the contract: under stall every row completes, and under panic a row
// completes or aborts with sched.ErrJobPanicked, and the pinned tuples
// abort. The Real rows stall or panic at every node. No case may leak a
// goroutine: the stop flag a failed run fires must reach every worker,
// wherever it waits.
func TestChaosTascell(t *testing.T) {
	base := runtime.NumGoroutine()
	orc := &oracles{}
	engines := []string{"tascell", "tascell-single"}
	pinnedAborts(t, orc, engines,
		"sim/w4/tascell/nqueens-array=6/panic/11",
		"sim/w4/tascell-single/nqueens-array=6/panic/11",
	)
	for _, eng := range engines {
		for si, scen := range []string{"stall", "panic"} {
			for _, seed := range append(seedsFor(si, 2), 11) {
				tuple := fmt.Sprintf("sim/w4/%s/nqueens-array=6/%s/%d", eng, scen, seed)
				v, o := simRow(t, orc, tuple)
				if v.class != "completed" && (scen == "stall" || !strings.Contains(o.Err, sched.ErrJobPanicked.Error())) {
					t.Errorf("%s: %s with %q", tuple, v.class, o.Err)
				}
			}
		}
	}

	want, err := orc.value(progSpec{name: "nqueens-array", n: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := progSpec{name: "nqueens-array", n: 6}.build()
	for _, e := range []adaptivetc.Engine{adaptivetc.NewTascell(), adaptivetc.NewTascellSingle()} {
		real := adaptivetc.NewRealPlatform(1)
		res, err := e.Run(p, adaptivetc.Options{Workers: 4, Platform: real,
			Faults: faults.New(faults.Spec{Stall: 1, StallNS: 1000})})
		if err != nil || res.Value != want {
			t.Errorf("real/w4/%s/stall-every-node: value=%d err=%v, want %d", e.Name(), res.Value, err, want)
		}
		_, err = foldPanic(func() (sched.Result, error) {
			return e.Run(p, adaptivetc.Options{Workers: 4, Platform: real, Faults: faults.New(faults.Spec{Panic: 1})})
		})
		if !errors.Is(err, sched.ErrJobPanicked) {
			t.Errorf("real/w4/%s/panic-every-node: err = %v, want ErrJobPanicked", e.Name(), err)
		}
	}
	noLeak(t, base)
}

// replays runs tuple twice, as -replay does: the two runs must be
// byte-identical (value, error text, per-worker events, deque FSM
// transitions) and end as class, with an error text containing wantErr.
func replays(t *testing.T, tuple, class, wantErr string) {
	t.Helper()
	c, err := parseTuple(tuple)
	if err != nil {
		t.Fatal(err)
	}
	v, o, same := replaySim(c, &oracles{})
	if v.err != nil {
		t.Fatalf("%s: %v", tuple, v.err)
	}
	if v.class != class || !strings.Contains(o.Err, wantErr) {
		t.Fatalf("%s: %s with %q, want %s with %q; re-pin the seed", tuple, v.class, o.Err, class, wantErr)
	}
	if !same {
		t.Fatalf("%s: replay diverged (%d worker streams, err %q)", tuple, len(o.Workers), o.Err)
	}
}

// TestChaosSeedReplay pins the seed-replay contract on the hardest path:
// the SYNCHED engine (per-node workspace clones, the cross-job panic
// surface) aborted mid-run by an injected worker panic.
func TestChaosSeedReplay(t *testing.T) {
	replays(t, "sim/w4/cilk-synched/nqueens-array=6/panic/7", "aborted", sched.ErrJobPanicked.Error())
}

// TestChaosSeedReplayCompleted is the complementary pin: a steal-burst
// case that completes despite forced steal failures.
func TestChaosSeedReplayCompleted(t *testing.T) {
	replays(t, "sim/w4/adaptivetc/nqueens-array=6/steal-burst/7", "completed", "")
}

// TestChaosPoolCrossJobPanic is the cross-job regression the fault plane
// exists to catch: a SYNCHED job killed mid-run by an injected worker
// panic must fail alone — its shard heals, re-enters the allocator, and a
// different program on the same workers completes with an invariant-clean
// trace. Before the stop-flag fix in Runtime.fail this wedged the
// co-workers of the panicking worker forever.
func TestChaosPoolCrossJobPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	orc := &oracles{}
	pool := wsrt.NewPool(wsrt.PoolConfig{
		Workers:           2,
		MaxConcurrentJobs: 1,
		Options:           sched.Options{Seed: 1},
	})
	defer pool.Close()

	run := func(prog progSpec, spec faults.Spec) (verdict, *wsrt.JobHandle, error) {
		t.Helper()
		v := verdict{c: caseSpec{mode: "pool", workers: 2, engine: "cilk-synched", prog: prog, seed: spec.Seed}}
		p, err := prog.build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := orc.value(prog)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		defer rec.Release()
		h, err := pool.Submit(wsrt.JobSpec{
			Prog:   p,
			Engine: adaptivetc.NewCilkSynched().(wsrt.PoolEngine),
			Tracer: rec,
			Faults: faults.New(spec),
		})
		if err != nil {
			t.Fatalf("submit %s: %v", prog, err)
		}
		res, runErr := h.Result()
		classify(&v, res.Value, want, runErr, rec)
		return v, h, runErr
	}

	v1, h1, err1 := run(progSpec{name: "nqueens-array", n: 6}, faults.Spec{Seed: 20100424, Panic: 1})
	if v1.err != nil || !errors.Is(err1, sched.ErrJobPanicked) {
		t.Fatalf("faulted SYNCHED job: %s (%v), run error %v, want ErrJobPanicked", v1.class, v1.err, err1)
	}
	if got := pool.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}
	// Same shard, different program, no faults: must complete clean.
	v2, h2, _ := run(progSpec{name: "knight", n: 4}, faults.Spec{})
	if v2.err != nil || v2.class != "completed" {
		t.Fatalf("follow-up job on the healed shard: %s (%v)", v2.class, v2.err)
	}
	if !reflect.DeepEqual(h1.Shard(), h2.Shard()) {
		t.Fatalf("follow-up ran on shard %v, want the healed shard %v", h2.Shard(), h1.Shard())
	}

	pool.Close()
	noLeak(t, base)
}

// TestChaosNewFamilies extends the table to the shared-state families: the
// dataflow DAG (dependency counters in per-run state) and branch-and-bound
// (the shared incumbent bound). An abort here tears down workers holding
// un-reverted claims and un-published bounds; the truncation laws prove
// the wreckage is still consistent.
func TestChaosNewFamilies(t *testing.T) {
	base := runtime.NumGoroutine()
	orc := &oracles{}
	engines := adaptivetc.PoolEngineNames()
	pinnedAborts(t, orc, engines,
		"sim/w4/cilk/dag-stencil=6/panic/7",
		"sim/w4/cilk-synched/dag-stencil=6/panic/11",
		"sim/w4/cutoff-programmer/dag-stencil=6/panic/135",
		"sim/w4/cutoff-library/dag-stencil=6/panic/7",
		"sim/w4/adaptivetc/dag-stencil=6/panic/7",
		"sim/w4/helpfirst/dag-stencil=6/panic/11",
		"sim/w4/slaw/dag-stencil=6/panic/11",
		"sim/w4/cilk/bnb-knapsack=12/panic/1",
		"sim/w4/cilk-synched/bnb-knapsack=12/panic/1",
		"sim/w4/cutoff-programmer/bnb-knapsack=12/panic/73",
		"sim/w4/cutoff-library/bnb-knapsack=12/panic/1",
		"sim/w4/adaptivetc/bnb-knapsack=12/panic/1",
		"sim/w4/helpfirst/bnb-knapsack=12/panic/1",
		"sim/w4/slaw/bnb-knapsack=12/panic/1",
	)
	mixedRows(t, orc, engines, "dag-stencil=6", "bnb-knapsack=12")
	noLeak(t, base)
}

// TestChaosFirstSolution runs the first-solution family as serve runs it:
// a completed row has no oracle value — the schedule picks the winner — so
// it must carry a witness that registry.VerifyWitness accepts, under the
// truncation laws (the winner cancels siblings mid-tree even on a
// fault-free run). Aborts keep the usual contract.
func TestChaosFirstSolution(t *testing.T) {
	base := runtime.NumGoroutine()
	orc := &oracles{}
	engines := adaptivetc.PoolEngineNames()
	pinnedAborts(t, orc, engines,
		"sim/w4/cilk/first-sat=12/panic/11",
		"sim/w4/cilk-synched/first-sat=12/panic/11",
		"sim/w4/cutoff-programmer/first-sat=12/panic/73",
		"sim/w4/cutoff-library/first-sat=12/panic/11",
		"sim/w4/adaptivetc/first-sat=12/panic/2",
		"sim/w4/helpfirst/first-sat=12/panic/11",
		"sim/w4/slaw/first-sat=12/panic/11",
	)
	mixedRows(t, orc, engines, "first-sat=12")
	noLeak(t, base)
}

// mixedRows runs each program on each engine under steal-burst, panic and
// mixed faults, two generic seeds each; steal-burst rows must complete.
func mixedRows(t *testing.T, orc *oracles, engines []string, programs ...string) {
	t.Helper()
	for _, prog := range programs {
		for _, eng := range engines {
			for si, scen := range []string{"steal-burst", "panic", "mixed"} {
				for _, seed := range seedsFor(si, 2) {
					tuple := fmt.Sprintf("sim/w4/%s/%s/%s/%d", eng, prog, scen, seed)
					if v, _ := simRow(t, orc, tuple); scen == "steal-burst" && v.class != "completed" {
						t.Errorf("%s: %s; steal-burst must not abort", tuple, v.class)
					}
				}
			}
		}
	}
}

// TestClassify feeds the verdict the runs no correct engine produces: an
// unknown abort class, a wrong value, an invalid witness, and broken traces
// under both the strict and the truncation laws. Each must fail the case.
func TestClassify(t *testing.T) {
	orc := &oracles{}
	queens := progSpec{name: "nqueens-array", n: 6}
	want, err := orc.value(queens)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := queens.build()
	traced := func(broken bool) *trace.Recorder {
		rec := trace.NewRecorder()
		t.Cleanup(rec.Release)
		if _, err := adaptivetc.NewAdaptiveTC().Run(p, sched.Options{Workers: 2, Seed: 7, Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		if broken {
			// A thief-side failed steal the deque never saw.
			rec.WorkerLog(1).Add(0, trace.OpStealFail, 0, 0, 0)
		}
		return rec
	}
	first := progSpec{name: "first-sat", n: 12}
	for _, tc := range []struct {
		name  string
		prog  progSpec
		value int64
		err   error
		rec   *trace.Recorder
		class string
		fails bool
	}{
		{"completed", queens, want, nil, traced(false), "completed", false},
		{"known abort", queens, 0, sched.ErrJobPanicked, traced(false), "aborted", false},
		{"wrong value", queens, want + 1, nil, traced(false), "completed", true},
		{"broken trace", queens, want, nil, traced(true), "completed", true},
		{"unknown abort class", queens, 0, errors.New("worker exploded"), traced(false), "aborted", true},
		{"aborted with a broken trace", queens, 0, sched.ErrJobPanicked, traced(true), "aborted", true},
		{"invalid witness", first, 12345, nil, nil, "completed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := verdict{c: caseSpec{mode: "sim", workers: 2, engine: "adaptivetc", prog: tc.prog, seed: 7}}
			w, err := orc.value(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			classify(&v, tc.value, w, tc.err, tc.rec)
			if v.class != tc.class || (v.err != nil) != tc.fails {
				t.Errorf("class %s, err %v; want %s, failing %v", v.class, v.err, tc.class, tc.fails)
			}
		})
	}
}

// TestDifferentialCluster runs a representative program slice through 2-
// and 3-node deterministic Sim clusters under the soak's skewed load with
// no faults: every job's first completion must carry the serial oracle's
// value, the model's conservation invariants must hold, identically-seeded
// runs must produce byte-identical event logs, and some job must move. The
// verdict must also notice two logs that differ by one event.
func TestDifferentialCluster(t *testing.T) {
	orc, costs := &oracles{}, &clusterCosts{}
	progs, err := parsePrograms("fib=14,nqueens-array=6,tree3,knight=5")
	if err != nil {
		t.Fatal(err)
	}
	var last *cluster.SimReport
	for _, prog := range progs {
		for _, nodes := range []int{2, 3} {
			c := caseSpec{mode: "cluster", workers: nodes, engine: "adaptivetc", prog: prog, seed: 7}
			name := fmt.Sprintf("cluster/n%d/%s/%s", nodes, c.engine, prog)
			v, rep := clusterCase(c, faults.Spec{}, orc, costs)
			if v.err != nil {
				t.Errorf("%s: %v", name, v.err)
				continue
			}
			moved := 0
			for _, st := range rep.PerNode {
				moved += st.ForwardedIn
			}
			if moved == 0 {
				t.Errorf("%s: no job ever moved — the rows don't exercise forwarding", name)
			}
			last = rep
		}
	}
	if last == nil {
		return
	}
	diverged := *last
	diverged.Events = last.Events[:len(last.Events)-1]
	var v verdict
	judgeCluster(&v, last, &diverged, last.Completed, last.Values[0])
	if v.err == nil {
		t.Error("two event logs that differ by one event passed the cluster verdict")
	}
}

// TestReplay builds the command and replays tuples: a Sim tuple runs twice
// and must come back byte-identical with exit status 0 and the verdict the
// chaos tests pin, and a malformed tuple, a pool tuple whose engine cannot
// run resident jobs, or a first-solution program on an engine that cannot
// stop at the first solution is refused with exit status 2 and a message
// saying why.
func TestReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "adaptivetc-chaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		tuple string
		code  int
		want  string // must appear on stdout or stderr
	}{
		{"sim/w4/adaptivetc/nqueens-array=6/steal-burst/7", 0, "replayed byte-identically"},
		{"sim/w4/cilk-synched/nqueens-array=6/panic/7", 0, `err="sched: job panicked: faults: injected panic`},
		{"sim/w4/tascell/nqueens-array=6/panic/11", 0, `err="sched: job panicked: faults: injected panic`},
		{"pool/w4/tascell/nqueens-array=6/panic/11", 2, `engine "tascell" is not pool-capable`},
		{"sim/w4/tascell/first-sat=12/steal-burst/20100424", 2, `engine "tascell" cannot run first-solution program first-sat=12`},
		{"sim/w4/adaptivetc/nqueens-array=6/7", 2, "replay tuple needs 6 '/'-separated fields"},
		{"sim/w4/adaptivetc/nqueens-array=6/earthquake/7", 2, `unknown scenario "earthquake"`},
	} {
		out, err := exec.Command(bin, "-replay", tc.tuple).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.tuple, err)
		}
		if code != tc.code {
			t.Errorf("%s: exit status %d, want %d\n%s", tc.tuple, code, tc.code, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output %q does not contain %q", tc.tuple, out, tc.want)
		}
	}
}
