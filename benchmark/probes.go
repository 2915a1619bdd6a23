package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"adaptivetc"
)

// Layer probes time calls into one layer's public functions, from outside
// it. They do not depend on the workload being traced: every traced run
// reports all of them, so a per-layer metric has one definition whichever
// workload it is printed beside. README.md says which end-to-end metric
// each group should move.

// microBudget is how long a micro-probe loops.
const microBudget = 40 * time.Millisecond

// sliceBudget is how long a probe that replays a workload runs it.
const sliceBudget = 700 * time.Millisecond

// canonicalSeed seeds every probe whose metric is an exact virtual count,
// so those read the same on every run whatever -seed says.
const canonicalSeed = 20100424

// exactCounts are the per-layer metrics that come from the virtual-time
// Sim alone and must repeat exactly from run to run.
var exactCounts = map[string]bool{
	"sim.cilk.speedup8": true, "sim.cilk-synched.speedup8": true, "sim.tascell.speedup8": true,
	"sim.adaptivetc.speedup8": true, "sim.cutoff-programmer.speedup8": true, "sim.cutoff-library.speedup8": true,
	"sim.adaptivetc.tasks_per_knode": true, "sim.cilk.copies_per_knode": true, "sim.adaptivetc.steals": true,
	"sim.tascell.wait_share": true, "cluster.sim.p99_sojourn_vms": true,
}

var errWrongValue = errors.New("wrong value from a probe run")

// probes collects the metrics the probe functions report.
type probes struct {
	seed int64
	out  map[string]metric
}

func (p *probes) set(name string, value float64, unit string) {
	p.out[name] = metric{value, unit}
}

// runProbes runs every layer probe once.
func runProbes(seed int64) (map[string]metric, error) {
	p := &probes{seed: seed, out: map[string]metric{}}
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"deque", p.probeDeque},
		{"victim pick", p.probePick},
		{"engines", p.probeEngines},
		{"steal policies", p.probeStealPolicies},
		{"scheduler counters", p.probeSched},
		{"round trips", p.probeRoundTrips},
		{"idle workers", p.probeIdle},
		{"serve over http", p.probeServeHTTP},
		{"cluster forward", p.probeForward},
		{"jobstore", p.probeJobstore},
		{"serve durable", p.probeServeDurable},
		{"progstore and lang", p.probePrograms},
		{"trace", p.probeTrace},
		{"vtime", p.probeVtime},
		{"sim engines", p.probeSim},
		{"cluster sim", p.probeClusterSim},
		{"experiments", p.probeExperiments},
	} {
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", probe.name, err)
		}
	}
	return p.out, nil
}

// timedRuns runs eng on s reps times and returns the median wall time and
// the last result; a wrong value is an error.
func timedRuns(eng adaptivetc.Engine, s solved, opt adaptivetc.Options, reps int) (time.Duration, adaptivetc.Result, error) {
	times := make([]time.Duration, reps)
	var res adaptivetc.Result
	for i := range times {
		if opt.Platform != nil {
			opt.Platform = adaptivetc.NewRealPlatform(opt.Seed + int64(i))
		}
		t0 := time.Now()
		var err error
		res, err = eng.Run(s.prog, opt)
		times[i] = time.Since(t0)
		if err != nil {
			return 0, res, fmt.Errorf("%s on %v: %w", eng.Name(), s.spec, err)
		}
		if res.Value != s.want {
			return 0, res, fmt.Errorf("%s on %v: value %d, serial oracle %d", eng.Name(), s.spec, res.Value, s.want)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2], res, nil
}

// realOpts are the options of a Real-platform run at the workload width.
func (p *probes) realOpts() adaptivetc.Options {
	return adaptivetc.Options{Workers: workers(), Platform: adaptivetc.NewRealPlatform(p.seed), Seed: p.seed}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
