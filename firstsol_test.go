package adaptivetc_test

import (
	"testing"

	"adaptivetc"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/firstsol"
	"adaptivetc/problems/registry"
)

// The first-solution differential rows. Unlike the value-equality rows of
// difftest_test.go, a first-solution run's value depends on which solution
// the schedule reached first — so the rows check a *validity predicate*
// (the witness decodes to a real solution) instead of equality with the
// serial oracle, plus the usual identically-seeded Sim rerun determinism
// (same winner, same witness, same makespan).

// firstSolutionCases are the first-solution registry families at
// differential sizes.
var firstSolutionCases = []struct {
	name   string
	params registry.Params
}{
	{"first-nqueens", registry.Params{N: 6}},
	{"first-sat", registry.Params{N: 10}},
}

// TestDifferentialFirstSolution runs every first-solution family through
// all seven pool-capable engines and the serial oracle with
// Options.FirstSolution set: each run must finish cleanly with a valid
// witness, and seeded Sim reruns must be deterministic.
func TestDifferentialFirstSolution(t *testing.T) {
	for _, tc := range firstSolutionCases {
		if !registry.FirstSolution(tc.name) {
			t.Fatalf("%s is not registered as a first-solution family", tc.name)
		}
		p, err := registry.Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("build %s: %v", tc.name, err)
		}
		check := func(engine string, v int64) {
			t.Helper()
			ok, checkable := registry.VerifyWitness(tc.name, tc.params, v)
			if !checkable {
				t.Errorf("%s/%s: witness %d is not checkable (zero value from a solvable instance?)", engine, tc.name, v)
				return
			}
			if !ok {
				t.Errorf("%s/%s: invalid witness %d", engine, tc.name, v)
			}
		}
		serial, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{FirstSolution: true})
		if err != nil {
			t.Fatalf("serial/%s: %v", tc.name, err)
		}
		check("serial", serial.Value)
		for _, mk := range diffEngines() {
			eng := mk()
			opt := adaptivetc.Options{Workers: 3, Seed: 7, FirstSolution: true}
			a, err := eng.Run(p, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", eng.Name(), tc.name, err)
			}
			check(eng.Name(), a.Value)
			b, err := mk().Run(p, opt)
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", eng.Name(), tc.name, err)
			}
			if a.Value != b.Value || a.Makespan != b.Makespan {
				t.Errorf("%s/%s: identically-seeded Sim reruns diverged: value %d/%d, makespan %d/%d",
					eng.Name(), tc.name, a.Value, b.Value, a.Makespan, b.Makespan)
			}
		}
	}
}

// TestDifferentialFirstSolutionPool pushes the first-solution families
// through a resident pool with JobSpec.FirstSolution — the serving path,
// each job on all four workers — and checks witness validity per job.
func TestDifferentialFirstSolutionPool(t *testing.T) {
	pool := wsrt.NewPool(wsrt.PoolConfig{
		Workers: 4, MaxConcurrentJobs: 1,
		QueueCapacity: 16, Options: sched.Options{GrowableDeque: true},
	})
	defer pool.Close()
	for _, tc := range firstSolutionCases {
		p, err := registry.Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("build %s: %v", tc.name, err)
		}
		for _, mk := range diffEngines() {
			eng := mk()
			h, err := pool.Submit(wsrt.JobSpec{
				Prog:          p,
				Engine:        eng.(wsrt.PoolEngine),
				FirstSolution: true,
			})
			if err != nil {
				t.Fatalf("submit %s/%s: %v", eng.Name(), tc.name, err)
			}
			res, err := h.Result()
			if err != nil {
				t.Fatalf("pool %s/%s: %v", eng.Name(), tc.name, err)
			}
			if ok, checkable := registry.VerifyWitness(tc.name, tc.params, res.Value); !checkable || !ok {
				t.Errorf("pool %s/%s: invalid witness %d (checkable=%v)", eng.Name(), tc.name, res.Value, checkable)
			}
		}
	}
}

// TestFirstSolutionNoSolution: a search space with no solution (3-queens)
// must complete normally with Value 0 under FirstSolution — the mode only
// changes what happens when a solution exists.
func TestFirstSolutionNoSolution(t *testing.T) {
	p := firstsol.NewQueens(3)
	serial, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{FirstSolution: true})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.Value != 0 {
		t.Fatalf("serial: 3-queens has no solution, got witness %d", serial.Value)
	}
	for _, mk := range diffEngines() {
		eng := mk()
		res, err := eng.Run(p, adaptivetc.Options{Workers: 3, Seed: 7, FirstSolution: true})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Value != 0 {
			t.Errorf("%s: 3-queens has no solution, got witness %d", eng.Name(), res.Value)
		}
	}
}

// TestFirstSolutionWinnerCancelsSiblings is the trace-level contract of the
// mode: across all workers of a traced run exactly one OpComplete is
// recorded (the winner's claim, carrying the run's witness), and the
// remaining workers' logs pass the truncation laws — the losers were
// cancelled mid-tree, which must look like a clean abort, not a corrupted
// run.
func TestFirstSolutionWinnerCancelsSiblings(t *testing.T) {
	for _, tc := range firstSolutionCases {
		p, err := registry.Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("build %s: %v", tc.name, err)
		}
		for _, eng := range tracedEngines {
			for seed := int64(1); seed <= 3; seed++ {
				rec := trace.NewRecorder()
				res, err := eng.mk().Run(p, adaptivetc.Options{
					Workers: 4, Seed: seed, FirstSolution: true, Tracer: rec,
				})
				if err != nil {
					t.Fatalf("%s/%s seed=%d: %v", eng.name, tc.name, seed, err)
				}
				completions := 0
				for i := 0; i < rec.Workers(); i++ {
					for _, ev := range rec.WorkerLog(i).Events() {
						if ev.Op == trace.OpComplete {
							completions++
							if ev.A != res.Value {
								t.Errorf("%s/%s seed=%d: OpComplete carries %d, result says %d",
									eng.name, tc.name, seed, ev.A, res.Value)
							}
						}
					}
				}
				if completions != 1 {
					t.Errorf("%s/%s seed=%d: %d root completions recorded, want exactly 1 (the winner's claim)",
						eng.name, tc.name, seed, completions)
				}
				if verr := rec.CheckLaws(trace.Laws{Truncated: true}); verr != nil {
					t.Errorf("%s/%s seed=%d: losers' truncated logs violate invariants:\n%v",
						eng.name, tc.name, seed, verr)
				}
				rec.Release()
			}
		}
	}
}

// TestFirstSolutionRealPlatform repeats the first-solution rows on real
// goroutines — run under -race in CI, this is the test that proves the
// claim/cancel protocol (CAS on the solved flag, stop-plane signal, loser
// unwinding) is data-race-free off the deterministic simulator.
func TestFirstSolutionRealPlatform(t *testing.T) {
	for _, tc := range firstSolutionCases {
		p, err := registry.Build(tc.name, tc.params)
		if err != nil {
			t.Fatalf("build %s: %v", tc.name, err)
		}
		for _, mk := range diffEngines() {
			for seed := int64(1); seed <= 2; seed++ {
				eng := mk()
				res, err := eng.Run(p, adaptivetc.Options{
					Workers: 4, Seed: seed, FirstSolution: true,
					Platform: adaptivetc.NewRealPlatform(seed),
				})
				if err != nil {
					t.Fatalf("%s/%s seed=%d: %v", eng.Name(), tc.name, seed, err)
				}
				if ok, checkable := registry.VerifyWitness(tc.name, tc.params, res.Value); !checkable || !ok {
					t.Errorf("%s/%s seed=%d: invalid witness %d (checkable=%v)",
						eng.Name(), tc.name, seed, res.Value, checkable)
				}
			}
		}
	}
}
