package adaptivetc_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adaptivetc"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/bnb"
	"adaptivetc/problems/dagflow"
	"adaptivetc/problems/firstsol"
	"adaptivetc/problems/knight"
	"adaptivetc/problems/nqueens"
)

// Chaos tests: every traced engine must stay inside the failure contract
// while the deterministic fault plane (internal/faults) perturbs its
// schedule. A case may end one of two ways, and nothing else:
//
//   - completed: serial-oracle value AND an invariant-clean trace
//     (trace.Recorder.Check);
//   - aborted: a known abort class (injected panic, forced overflow,
//     deadline, cancellation, pool shutdown) AND a truncation-clean trace
//     (trace.Laws{Truncated: true}).
//
// Wrong values, invariant violations, unknown panic classes, hangs and
// leaked goroutines all fail the test. Seeds are pinned, and the Sim
// platform makes each case a pure function of its seed, so any failure
// here reproduces byte-identically from the logged tuple (see
// TestChaosSeedReplay for the replay contract itself).

// chaosAbortOK reports whether err is an abort class chaos is allowed to
// surface. Mirrors the verdict contract of cmd/adaptivetc-chaos.
func chaosAbortOK(err error) bool {
	return errors.Is(err, sched.ErrDequeOverflow) ||
		errors.Is(err, wsrt.ErrJobPanicked) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, wsrt.ErrPoolClosed)
}

// chaosOutcome is everything observable about one Sim case: the value, the
// error text, and the full per-worker event and per-deque FSM streams. Two
// runs of the same (engine, program, spec, seed) tuple must produce
// DeepEqual outcomes — that is the seed-replay contract.
type chaosOutcome struct {
	Value   int64
	Err     string
	Workers [][]trace.Event
	Deques  [][]trace.DequeEvent
}

// runChaos executes one faulted case on the Sim platform. Injected program
// panics propagate out of batch runs by design; they are recovered here
// and folded into the returned error as wsrt.ErrJobPanicked.
func runChaos(e adaptivetc.Engine, p adaptivetc.Program, spec faults.Spec, workers int, seed int64) (*chaosOutcome, error) {
	rec := trace.NewRecorder()
	defer rec.Release()
	res, runErr := func() (res sched.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(faults.PanicValue); ok {
					err = errors.Join(wsrt.ErrJobPanicked, errors.New(r.(faults.PanicValue).String()))
					return
				}
				panic(r)
			}
		}()
		return e.Run(p, adaptivetc.Options{
			Workers: workers,
			Seed:    seed,
			Tracer:  rec,
			Faults:  faults.New(spec),
		})
	}()

	out := &chaosOutcome{Value: res.Value}
	if runErr != nil {
		out.Err = runErr.Error()
	}
	for i := 0; i < rec.Workers(); i++ {
		out.Workers = append(out.Workers, append([]trace.Event(nil), rec.WorkerLog(i).Events()...))
		out.Deques = append(out.Deques, append([]trace.DequeEvent(nil), rec.DequeLog(i).Events()...))
	}

	if runErr == nil {
		if cerr := rec.Check(res.Value, invariantOracleValue); cerr != nil {
			return out, cerr
		}
		return out, nil
	}
	if !chaosAbortOK(runErr) {
		return out, runErr
	}
	if cerr := rec.CheckLaws(trace.Laws{Truncated: true}); cerr != nil {
		return out, cerr
	}
	return out, runErr
}

// invariantOracleValue is set once per test binary by chaosOracle.
var invariantOracleValue int64

func chaosOracle(t *testing.T, p adaptivetc.Program) int64 {
	t.Helper()
	res, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
	if err != nil {
		t.Fatalf("serial oracle: %v", err)
	}
	return res.Value
}

// TestChaosEngines drives all seven traced engines through the four core
// fault scenarios with pinned seeds. Each cell must land in the contract
// (completed-and-clean or known-abort-and-truncation-clean), and across
// the table the panic and overflow scenarios must actually have fired —
// a fault plane that never injects proves nothing.
func TestChaosEngines(t *testing.T) {
	p := nqueens.NewArray(6)
	invariantOracleValue = chaosOracle(t, p)
	base := runtime.NumGoroutine()

	// triggerSeeds pins, per engine, a seed at which the low-rate scenarios
	// are known to fire mid-run (found by exhaustive scan, deterministic on
	// Sim). The generic seeds exercise the complementary clean path.
	triggerSeeds := map[string]map[string]int64{
		"panic": {
			"cilk": 7, "cilk-synched": 7, "cutoff-library": 7,
			"adaptivetc": 7, "helpfirst": 7, "slaw": 7,
			"cutoff-programmer": 73,
		},
		"overflow": {
			"cilk": 11, "cilk-synched": 11, "helpfirst": 11, "slaw": 11,
			"cutoff-programmer": 56, "adaptivetc": 56,
			"cutoff-library": 68,
		},
	}

	scenarios := []string{"steal-burst", "stall", "panic", "overflow"}
	aborts := map[string]int{}
	completions := map[string]int{}
	for _, eng := range tracedEngines {
		for si, scen := range scenarios {
			seeds := []int64{
				20100424 + int64(si*1009),
				20100424 + int64(si*1009+101),
				20100424 + int64(si*1009+202),
			}
			if s, ok := triggerSeeds[scen][eng.name]; ok {
				seeds = append(seeds, s)
			}
			for _, seed := range seeds {
				spec, err := faults.Scenario(scen, seed)
				if err != nil {
					t.Fatalf("scenario %s: %v", scen, err)
				}
				out, runErr := runChaos(eng.mk(), p, spec, 4, seed)
				tuple := fmt.Sprintf("sim/w4/%s/nqueens-array=6/%s/%d", eng.name, scen, seed)
				switch {
				case runErr == nil:
					if out.Value != invariantOracleValue {
						t.Fatalf("%s: wrong value %d, want %d", tuple, out.Value, invariantOracleValue)
					}
					completions[scen]++
				case chaosAbortOK(runErr):
					aborts[scen]++
				default:
					t.Fatalf("%s: outside the chaos contract: %v", tuple, runErr)
				}
			}
		}
	}

	// The injection must have bitten: every engine's pinned trigger seed
	// aborts its panic and overflow runs, while steal-burst and stall
	// complete every run (they only perturb the schedule, never break it).
	for _, scen := range []string{"panic", "overflow"} {
		if aborts[scen] < len(tracedEngines) {
			t.Errorf("%s scenario aborted %d runs, want >= %d (one per pinned trigger seed); injection or pin has rotted",
				scen, aborts[scen], len(tracedEngines))
		}
	}
	for _, scen := range []string{"steal-burst", "stall"} {
		if aborts[scen] != 0 {
			t.Errorf("%s scenario aborted %d runs; schedule perturbation must not break runs", scen, aborts[scen])
		}
		if completions[scen] != 3*len(tracedEngines) {
			t.Errorf("%s: %d/%d runs completed", scen, completions[scen], 3*len(tracedEngines))
		}
	}

	waitForGoroutines(t, base)
}

// TestChaosSeedReplay pins the seed-replay contract on the hardest path:
// the SYNCHED engine (per-node workspace clones, the cross-job panic
// surface) aborted mid-run by an injected worker panic. Two runs of the
// pinned seed must produce byte-identical outcomes — same value, same
// error text, same per-worker event streams, same deque FSM transitions —
// and the truncated trace must still satisfy every conservation law.
func TestChaosSeedReplay(t *testing.T) {
	p := nqueens.NewArray(6)
	invariantOracleValue = chaosOracle(t, p)

	// Seed pinned to a case where the panic scenario fires mid-run for
	// cilk-synched; the assertions below fail loudly if a scheduler change
	// makes it complete instead, so the pin cannot rot silently.
	const seed = 7
	spec, err := faults.Scenario("panic", seed)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*chaosOutcome, error) {
		return runChaos(adaptivetc.NewCilkSynched(), p, spec, 4, seed)
	}
	o1, err1 := run()
	o2, err2 := run()
	if !errors.Is(err1, wsrt.ErrJobPanicked) {
		t.Fatalf("pinned seed %d no longer triggers the injected panic (err=%v); re-pin the seed", seed, err1)
	}
	if (err2 == nil) != (err1 == nil) || (err2 != nil && err2.Error() != err1.Error()) {
		t.Fatalf("replay diverged on error: run1=%v run2=%v", err1, err2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("replay diverged: two runs of seed %d produced different schedules (%d vs %d worker streams)",
			seed, len(o1.Workers), len(o2.Workers))
	}
}

// TestChaosSeedReplayCompleted is the complementary pin: a steal-burst
// case that completes despite forced steal failures must also replay
// byte-identically and produce the oracle value both times.
func TestChaosSeedReplayCompleted(t *testing.T) {
	p := nqueens.NewArray(6)
	invariantOracleValue = chaosOracle(t, p)

	const seed = 7
	spec, err := faults.Scenario("steal-burst", seed)
	if err != nil {
		t.Fatal(err)
	}
	o1, err1 := runChaos(adaptivetc.NewAdaptiveTC(), p, spec, 4, seed)
	o2, err2 := runChaos(adaptivetc.NewAdaptiveTC(), p, spec, 4, seed)
	if err1 != nil || err2 != nil {
		t.Fatalf("steal-burst must complete: run1=%v run2=%v", err1, err2)
	}
	if o1.Value != invariantOracleValue {
		t.Fatalf("wrong value %d, want %d", o1.Value, invariantOracleValue)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("replay diverged for completed case seed %d", seed)
	}
}

// TestChaosPoolCrossJobPanic is the cross-job regression the fault plane
// exists to catch: a SYNCHED job killed mid-run by an injected worker
// panic must fail alone — its shard heals, re-enters the allocator, and a
// different program on the same workers completes with an invariant-clean
// trace. Before the stop-flag fix in Runtime.fail this wedged the
// co-workers of the panicking worker forever.
func TestChaosPoolCrossJobPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := wsrt.NewPool(wsrt.PoolConfig{
		Workers:           2,
		MaxConcurrentJobs: 1,
		Options:           sched.Options{Seed: 1},
	})
	defer pool.Close()

	const seed = 20100424
	rec1 := trace.NewRecorder()
	defer rec1.Release()
	h1, err := pool.Submit(wsrt.JobSpec{
		Prog:   nqueens.NewArray(6),
		Engine: adaptivetc.NewCilkSynched().(wsrt.PoolEngine),
		Tracer: rec1,
		Faults: faults.New(faults.Spec{Seed: seed, Panic: 1}),
	})
	if err != nil {
		t.Fatalf("submit faulted job: %v", err)
	}
	_, runErr := h1.Result()
	if !errors.Is(runErr, wsrt.ErrJobPanicked) {
		t.Fatalf("faulted SYNCHED job: got %v, want ErrJobPanicked", runErr)
	}
	if cerr := rec1.CheckLaws(trace.Laws{Truncated: true}); cerr != nil {
		t.Fatalf("panicked job left an invariant-violating trace: %v", cerr)
	}
	if got := pool.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}

	// Same shard, different program, no faults: must complete clean.
	kn := knight.New(4)
	want := chaosOracle(t, kn)
	rec2 := trace.NewRecorder()
	defer rec2.Release()
	h2, err := pool.Submit(wsrt.JobSpec{
		Prog:   kn,
		Engine: adaptivetc.NewCilkSynched().(wsrt.PoolEngine),
		Tracer: rec2,
	})
	if err != nil {
		t.Fatalf("submit follow-up job: %v", err)
	}
	res, runErr := h2.Result()
	if runErr != nil {
		t.Fatalf("follow-up job on healed shard failed: %v", runErr)
	}
	if res.Value != want {
		t.Fatalf("follow-up value %d, want %d", res.Value, want)
	}
	if cerr := rec2.Check(res.Value, want); cerr != nil {
		t.Fatalf("follow-up trace on healed shard: %v", cerr)
	}
	if !reflect.DeepEqual(h1.Shard(), h2.Shard()) {
		t.Fatalf("follow-up ran on shard %v, want the healed shard %v", h2.Shard(), h1.Shard())
	}

	pool.Close()
	waitForGoroutines(t, base)
}

// TestChaosNewFamilies extends the chaos table to the shared-state
// families: the dataflow DAG (dependency counters in per-run state) and
// branch-and-bound (the shared incumbent bound) under steal-burst, panic
// and mixed fault scenarios. The same contract applies — completed runs
// must produce the schedule-independent family value with a clean trace,
// aborted runs must surface a known class with a truncation-clean trace —
// and it is worth testing separately because an abort here tears down
// workers holding un-reverted claims and un-published bounds; the trace
// laws prove the wreckage is still consistent.
func TestChaosNewFamilies(t *testing.T) {
	base := runtime.NumGoroutine()
	families := []struct {
		name string
		p    adaptivetc.Program
		// panicSeeds pins, per engine, a seed at which the 0.002-rate
		// panic scenario fires mid-run (found by scan, deterministic on
		// Sim).
		panicSeeds map[string]int64
	}{
		{
			name: "dag-stencil-6x6",
			p:    dagflow.NewStencil(6, 6),
			panicSeeds: map[string]int64{
				"cilk": 7, "cilk-synched": 11, "cutoff-programmer": 135,
				"cutoff-library": 7, "adaptivetc": 7, "helpfirst": 11, "slaw": 11,
			},
		},
		{
			name: "bnb-knapsack-12",
			p:    bnb.NewKnapsack(12, 0, 20100424),
			panicSeeds: map[string]int64{
				"cilk": 1, "cilk-synched": 1, "cutoff-programmer": 73,
				"cutoff-library": 1, "adaptivetc": 1, "helpfirst": 1, "slaw": 1,
			},
		},
	}
	scenarios := []string{"steal-burst", "panic", "mixed"}
	for _, fam := range families {
		invariantOracleValue = chaosOracle(t, fam.p)
		panicAborts := 0
		for _, eng := range tracedEngines {
			for si, scen := range scenarios {
				seeds := []int64{20100424 + int64(si*1009), 20100424 + int64(si*1009+101)}
				if scen == "panic" {
					seeds = append(seeds, fam.panicSeeds[eng.name])
				}
				for _, seed := range seeds {
					spec, err := faults.Scenario(scen, seed)
					if err != nil {
						t.Fatalf("scenario %s: %v", scen, err)
					}
					out, runErr := runChaos(eng.mk(), fam.p, spec, 4, seed)
					tuple := fmt.Sprintf("sim/w4/%s/%s/%s/%d", eng.name, fam.name, scen, seed)
					switch {
					case runErr == nil:
						if out.Value != invariantOracleValue {
							t.Fatalf("%s: wrong value %d, want %d", tuple, out.Value, invariantOracleValue)
						}
						if scen == "steal-burst" {
							continue
						}
					case chaosAbortOK(runErr):
						if scen == "steal-burst" {
							t.Fatalf("%s: steal-burst only perturbs the schedule, must not abort: %v", tuple, runErr)
						}
						if scen == "panic" {
							panicAborts++
						}
					default:
						t.Fatalf("%s: outside the chaos contract: %v", tuple, runErr)
					}
				}
			}
		}
		if panicAborts < len(tracedEngines) {
			t.Errorf("%s: panic scenario aborted %d runs, want >= %d (one per pinned trigger seed); injection or pin has rotted",
				fam.name, panicAborts, len(tracedEngines))
		}
	}
	waitForGoroutines(t, base)
}

// TestChaosFirstSolution runs the first-solution family under the same
// fault scenarios with its own verdict: a completed run has no oracle value
// — the schedule picks the winner — so it must instead carry a *valid
// witness* and a truncation-clean trace (the winner cancels siblings
// mid-tree even on a fault-free run). Aborts keep the usual contract.
func TestChaosFirstSolution(t *testing.T) {
	base := runtime.NumGoroutine()
	p := firstsol.NewSAT(12, 0, 20100424)
	panicSeeds := map[string]int64{
		"cilk": 11, "cilk-synched": 11, "cutoff-programmer": 73,
		"cutoff-library": 11, "adaptivetc": 2, "helpfirst": 11, "slaw": 11,
	}
	run := func(e adaptivetc.Engine, spec faults.Spec, seed int64) (int64, error) {
		rec := trace.NewRecorder()
		defer rec.Release()
		res, runErr := func() (res sched.Result, err error) {
			defer func() {
				if r := recover(); r != nil {
					if pv, ok := r.(faults.PanicValue); ok {
						err = errors.Join(wsrt.ErrJobPanicked, errors.New(pv.String()))
						return
					}
					panic(r)
				}
			}()
			return e.Run(p, adaptivetc.Options{
				Workers: 4, Seed: seed, Tracer: rec,
				Faults: faults.New(spec), FirstSolution: true,
			})
		}()
		if runErr != nil && !chaosAbortOK(runErr) {
			return res.Value, runErr
		}
		if cerr := rec.CheckLaws(trace.Laws{Truncated: true}); cerr != nil {
			return res.Value, cerr
		}
		return res.Value, runErr
	}
	panicAborts := 0
	for _, eng := range tracedEngines {
		for si, scen := range []string{"steal-burst", "panic", "mixed"} {
			seeds := []int64{20100424 + int64(si*1009), 20100424 + int64(si*1009+101)}
			if scen == "panic" {
				seeds = append(seeds, panicSeeds[eng.name])
			}
			for _, seed := range seeds {
				spec, err := faults.Scenario(scen, seed)
				if err != nil {
					t.Fatalf("scenario %s: %v", scen, err)
				}
				v, runErr := run(eng.mk(), spec, seed)
				tuple := fmt.Sprintf("sim/w4/%s/first-sat/%s/%d", eng.name, scen, seed)
				switch {
				case runErr == nil:
					if !p.Verify(v) {
						t.Fatalf("%s: completed with invalid witness %d", tuple, v)
					}
				case chaosAbortOK(runErr):
					if scen == "steal-burst" {
						t.Fatalf("%s: steal-burst must not abort: %v", tuple, runErr)
					}
					if scen == "panic" {
						panicAborts++
					}
				default:
					t.Fatalf("%s: outside the chaos contract: %v", tuple, runErr)
				}
			}
		}
	}
	if panicAborts < len(tracedEngines) {
		t.Errorf("panic scenario aborted %d first-solution runs, want >= %d; injection or pin has rotted",
			panicAborts, len(tracedEngines))
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines asserts the goroutine count settles back to within a
// small slack of base — chaos must not leak workers past pool shutdown.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d now vs %d at start", n, base)
}
