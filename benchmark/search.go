package main

import (
	"fmt"
	"time"

	"adaptivetc"
	"adaptivetc/problems/registry"
)

// progSpec names one registry program instance.
type progSpec struct {
	Program string
	N, M    int
	Size    int64
}

func (p progSpec) String() string {
	return fmt.Sprintf("%s(n=%d,m=%d,size=%d)", p.Program, p.N, p.M, p.Size)
}

func (p progSpec) params() registry.Params { return registry.Params{N: p.N, M: p.M, Size: p.Size} }

func (p progSpec) build() (adaptivetc.Program, error) { return registry.Build(p.Program, p.params()) }

// solved is a built program with its serial-oracle answer.
type solved struct {
	spec  progSpec
	prog  adaptivetc.Program
	want  int64
	nodes int64 // nodes the serial run visited
}

// solveSerial builds spec and runs the serial reference engine on it: the
// value every parallel answer is checked against.
func solveSerial(spec progSpec) (solved, error) {
	prog, err := spec.build()
	if err != nil {
		return solved{}, err
	}
	want, nodes, err := serialValue(prog, registry.FirstSolution(spec.Program))
	if err != nil {
		return solved{}, fmt.Errorf("serial oracle for %v: %w", spec, err)
	}
	return solved{spec: spec, prog: prog, want: want, nodes: nodes}, nil
}

// serialValue runs the serial reference engine on prog.
func serialValue(prog adaptivetc.Program, firstSolution bool) (value, nodes int64, err error) {
	res, err := adaptivetc.NewSerial().Run(prog, adaptivetc.Options{
		Platform:      adaptivetc.NewRealPlatform(1),
		FirstSolution: firstSolution,
	})
	return res.Value, res.Stats.Nodes, err
}

func solveAll(specs []progSpec) ([]solved, error) {
	out := make([]solved, len(specs))
	for i, s := range specs {
		var err error
		if out[i], err = solveSerial(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The two search workloads run the same loop on different engines and, so
// that both make a comparable number of ops per window, different sizes.
// The lopsided tree3 sets the tail of both.
var (
	searchAdaptiveProgs = []progSpec{
		{Program: "nqueens-array", N: 11},
		{Program: "sudoku-balanced", N: 44},
		{Program: "tree3", Size: 60000},
	}
	searchEagerProgs = []progSpec{
		{Program: "nqueens-array", N: 10},
		{Program: "sudoku-balanced", N: 42},
		{Program: "tree3", Size: 30000},
	}
)

func setupSearchAdaptive(seed int64) (*instance, error) {
	return setupSearch(seed, adaptivetc.NewAdaptiveTC(), searchAdaptiveProgs)
}

func setupSearchEager(seed int64) (*instance, error) {
	return setupSearch(seed, adaptivetc.NewCilk(), searchEagerProgs)
}

// setupSearch is the closed loop of one caller running eng on the Real
// platform. The seed orders the ops and seeds each run's victim selection.
func setupSearch(seed int64, eng adaptivetc.Engine, specs []progSpec) (*instance, error) {
	progs, err := solveAll(specs)
	if err != nil {
		return nil, err
	}
	sched := newSchedule(seed, len(progs))
	return &instance{
		clients: 1,
		op: func(_ int, k int64, tr *opTrace) (time.Duration, error) {
			p := progs[sched.at(k)]
			done := tr.span("engine.run")
			res, err := eng.Run(p.prog, adaptivetc.Options{
				Workers:  workers(),
				Platform: adaptivetc.NewRealPlatform(seed + k),
				Seed:     seed + k,
			})
			done()
			if err != nil {
				return 0, fmt.Errorf("%s on %v: %w", eng.Name(), p.spec, err)
			}
			defer tr.span("verify")()
			if res.Value != p.want {
				return 0, fmt.Errorf("%s on %v: value %d, serial oracle %d", eng.Name(), p.spec, res.Value, p.want)
			}
			return 0, nil
		},
		close: func() {},
	}, nil
}
