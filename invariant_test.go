package adaptivetc_test

import (
	"math/rand"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/trace"
	"adaptivetc/problems/nqueens"
)

// The schedule-stress harness: every wsrt-backed engine runs under the
// event tracer across randomized (seed, workers, cutoff) tuples, and each
// run's trace is replayed against the conservation laws of the THE
// protocol and the deposit protocol (internal/trace/invariant.go). A right
// answer is not enough — the run must also prove that every pushed frame
// was consumed exactly once, every deposit was owed, no special marker was
// ever stolen, and the need_task FSM followed Figure 3.
//
// Tascell is absent: it schedules by request/response over its own stacks,
// not through the wsrt deque runtime the tracer instruments. Serial has no
// scheduler to check.

// tracedEngines are the engines whose runs flow through wsrt.Run and are
// therefore observable by the tracer.
var tracedEngines = []struct {
	name string
	mk   func() adaptivetc.Engine
}{
	{"cilk", adaptivetc.NewCilk},
	{"cilk-synched", adaptivetc.NewCilkSynched},
	{"cutoff-programmer", adaptivetc.NewCutoffProgrammer},
	{"cutoff-library", adaptivetc.NewCutoffLibrary},
	{"adaptivetc", adaptivetc.NewAdaptiveTC},
	{"helpfirst", adaptivetc.NewHelpFirst},
	{"slaw", adaptivetc.NewSLAW},
}

// invariantOracle computes the serial reference value once.
func invariantOracle(t testing.TB, p adaptivetc.Program) int64 {
	t.Helper()
	res, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
	if err != nil {
		t.Fatalf("serial oracle: %v", err)
	}
	return res.Value
}

// runChecked executes one traced run and replays its invariants.
func runChecked(t *testing.T, rec *trace.Recorder, name string, e adaptivetc.Engine, p adaptivetc.Program, opt adaptivetc.Options, want int64) {
	t.Helper()
	opt.Tracer = rec
	res, err := e.Run(p, opt)
	if err != nil {
		t.Fatalf("%s workers=%d cutoff=%d seed=%d: run failed: %v",
			name, opt.Workers, opt.Cutoff, opt.Seed, err)
	}
	if err := rec.Check(res.Value, want); err != nil {
		t.Fatalf("%s workers=%d cutoff=%d seed=%d (%d events):\n%v",
			name, opt.Workers, opt.Cutoff, opt.Seed, rec.EventCount(), err)
	}
}

// TestInvariantStress drives all traced engines through >= 100 randomized
// deterministic-Sim tuples. The rand stream is fixed, so a failure here is
// exactly reproducible from the logged tuple.
func TestInvariantStress(t *testing.T) {
	p := nqueens.NewArray(6)
	want := invariantOracle(t, p)
	rec := trace.NewRecorder()
	defer rec.Release()
	rng := rand.New(rand.NewSource(20100424))
	const tuplesPerEngine = 16 // 7 engines x 16 = 112 checked runs
	for _, eng := range tracedEngines {
		e := eng.mk()
		for i := 0; i < tuplesPerEngine; i++ {
			opt := adaptivetc.Options{
				Workers:     1 + rng.Intn(8),
				Seed:        rng.Int63n(1 << 30),
				Cutoff:      rng.Intn(6),
				ForceCutoff: true,
			}
			runChecked(t, rec, eng.name, e, p, opt, want)
		}
	}
}

// TestInvariantStressReal repeats a smaller sweep on real goroutines,
// where steals interleave nondeterministically and the trace captures real
// cross-worker races. Run under -race in CI.
func TestInvariantStressReal(t *testing.T) {
	p := nqueens.NewArray(6)
	want := invariantOracle(t, p)
	rec := trace.NewRecorder()
	defer rec.Release()
	rng := rand.New(rand.NewSource(19101993))
	for _, eng := range tracedEngines {
		e := eng.mk()
		for i := 0; i < 3; i++ {
			seed := rng.Int63n(1 << 30)
			opt := adaptivetc.Options{
				Workers:     2 + rng.Intn(3),
				Seed:        seed,
				Cutoff:      rng.Intn(6),
				ForceCutoff: true,
				Platform:    adaptivetc.NewRealPlatform(seed),
			}
			runChecked(t, rec, eng.name, e, p, opt, want)
		}
	}
}

// TestTraceStamps pins what a trace event's timestamp is on each platform.
// On the wall clock nothing reads one — the checker orders events by log
// position and the deque logs — so the runtime records 0 and reads no clock
// per event; under the Sim the stamp is the worker's virtual clock, which the
// Chrome export shows: per worker it never goes back, and the run advances it.
// The runs must pass the checker either way.
func TestTraceStamps(t *testing.T) {
	p := nqueens.NewArray(8)
	want := invariantOracle(t, p)
	rec := trace.NewRecorder()
	defer rec.Release()
	for _, eng := range []struct {
		name string
		mk   func() adaptivetc.Engine
	}{{"cilk", adaptivetc.NewCilk}, {"adaptivetc", adaptivetc.NewAdaptiveTC}} {
		for _, wall := range []bool{true, false} {
			opt := adaptivetc.Options{Workers: 2, Seed: 7}
			platform := "sim"
			if wall {
				opt.Platform, platform = adaptivetc.NewRealPlatform(7), "real"
			}
			t.Run(eng.name+"/"+platform, func(t *testing.T) {
				runChecked(t, rec, eng.name, eng.mk(), p, opt, want)
				stamped := 0
				for i := 0; i < rec.Workers(); i++ {
					last := int64(0)
					for _, ev := range rec.WorkerLog(i).Events() {
						switch {
						case wall && ev.TS != 0:
							t.Fatalf("worker %d: %s event stamped %d on the wall clock, want 0", i, ev.Op, ev.TS)
						case ev.TS < last:
							t.Fatalf("worker %d: %s event stamped %d after %d: virtual time went back", i, ev.Op, ev.TS, last)
						}
						if ev.TS != 0 {
							stamped++
						}
						last = ev.TS
					}
				}
				if !wall && stamped == 0 {
					t.Errorf("every one of %d Sim events is stamped 0, want virtual time", rec.EventCount())
				}
			})
		}
	}
}

// FuzzInvariant lets the fuzzer pick the (seed, workers, cutoff) tuple,
// running every traced engine on the Real platform under the checker. The
// corpus entries double as regression anchors in plain `go test` runs.
func FuzzInvariant(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(7), uint8(4), uint8(3))
	f.Add(int64(42), uint8(8), uint8(5))
	f.Add(int64(1009), uint8(1), uint8(2))
	p := nqueens.NewArray(6)
	want := invariantOracle(f, p)
	f.Fuzz(func(t *testing.T, seed int64, workers, cutoff uint8) {
		rec := trace.NewRecorder()
		defer rec.Release()
		opt := adaptivetc.Options{
			Workers:     1 + int(workers%8),
			Seed:        seed,
			Cutoff:      int(cutoff % 6),
			ForceCutoff: true,
		}
		for _, eng := range tracedEngines {
			o := opt
			o.Platform = adaptivetc.NewRealPlatform(seed)
			runChecked(t, rec, eng.name, eng.mk(), p, o, want)
		}
	})
}
