package adaptivetc_test

import (
	"testing"

	"adaptivetc"
	"adaptivetc/internal/lang"
	"adaptivetc/problems/nqueens"
)

// nqueens8Solutions is the known solution count for 8 queens on an 8×8
// board, the classic published value.
const nqueens8Solutions = 92

// TestEngineRace gives every scheduler family its own named subtest on the
// Real platform — actual goroutines, actual contention — so a race-detector
// run (`go test -race -run TestEngineRace`) pinpoints the faulty engine by
// name. Each subtest solves 8-queens with 4 workers and checks the known
// count, exercising the THE-protocol deque, the frame deposit path and the
// frame/box free-lists under genuine parallelism. AdaptiveTC runs again
// under the batch and the victim-choosing steal policies, on the THE and on
// the relaxed deque. Its deques stay too shallow for steal-half to take more
// than one entry, so Cilk, which pushes at every spawn, runs the batch steal
// on both deques as well.
func TestEngineRace(t *testing.T) {
	type row struct {
		name string
		e    adaptivetc.Engine
		opt  adaptivetc.Options
	}
	var rows []row
	for _, e := range []adaptivetc.Engine{
		adaptivetc.NewCilk(),
		adaptivetc.NewCutoffProgrammer(),
		adaptivetc.NewAdaptiveTC(),
		adaptivetc.NewSLAW(),
		adaptivetc.NewTascell(),
	} {
		rows = append(rows, row{e.Name(), e, adaptivetc.Options{}})
	}
	for _, p := range []struct {
		mk     func() adaptivetc.Engine
		policy string
	}{
		{adaptivetc.NewAdaptiveTC, "steal-half"},
		{adaptivetc.NewAdaptiveTC, "richest-first"},
		{adaptivetc.NewCilk, "steal-half"},
	} {
		for deque, relaxed := range map[string]bool{"THE": false, "relaxed": true} {
			e := p.mk()
			rows = append(rows, row{e.Name() + "/" + p.policy + "/" + deque, e,
				adaptivetc.Options{StealPolicy: p.policy, RelaxedDeque: relaxed}})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			r.opt.Workers, r.opt.Platform = 4, adaptivetc.NewRealPlatform(7)
			res, err := r.e.Run(nqueens.NewArray(8), r.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != nqueens8Solutions {
				t.Errorf("%s found %d solutions for 8-queens, want %d", r.name, res.Value, nqueens8Solutions)
			}
		})
	}
}

// TestEngineRaceDSL is TestEngineRace for programs written in the
// mini-language: a DSL workspace carries its evaluation scratch (rollback
// log, loop variables) with it, and a workspace crosses workers on every
// steal, so each of the seven pool engines runs each built-in source at 4
// Real workers. Under -race a scratch shared between two workspaces, or a
// workspace evaluated by two workers at once, is a reported data race.
func TestEngineRaceDSL(t *testing.T) {
	for name, n := range map[string]int64{"nqueens": 7, "fib": 16, "latin": 4} {
		p, err := lang.CompileProgram(name, lang.Sources()[name], map[string]int64{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		want, err := adaptivetc.NewSerial().Run(p, adaptivetc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range diffEngines() {
			e := mk()
			t.Run(e.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				res, err := e.Run(p, adaptivetc.Options{Workers: 4, Platform: adaptivetc.NewRealPlatform(7)})
				if err != nil {
					t.Fatal(err)
				}
				if res.Value != want.Value {
					t.Errorf("%s/%s = %d, serial says %d", e.Name(), name, res.Value, want.Value)
				}
			})
		}
	}
}
