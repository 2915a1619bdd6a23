package main

import (
	"io"
	"runtime"
	"time"

	"adaptivetc"
	"adaptivetc/internal/experiments"
	"adaptivetc/internal/vtime"
)

// yieldNS runs procs Sim workers that each advance and yield n times, and
// returns wall nanoseconds per round — the three shapes of
// internal/vtime's own benchmarks.
func yieldNS(procs, n int, step func(id int) int64) float64 {
	sim := &vtime.Sim{Seed: 1, Quantum: 1}
	t0 := time.Now()
	sim.Run(procs, func(pr vtime.Proc) {
		d := step(pr.ID())
		for i := 0; i < n; i++ {
			pr.Advance(d)
			pr.Yield()
		}
	})
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeVtime times the virtual-time core: a worker-to-worker handoff, the
// single-worker fast path, and eight workers constantly reordering.
func (p *probes) probeVtime() error {
	two := func(int) int64 { return 2 }
	p.set("vtime.sim.handoff_ns", yieldNS(2, 50_000, two), "ns")
	p.set("vtime.sim.solo_yield_ns", yieldNS(1, 2_000_000, two), "ns")
	p.set("vtime.sim.wide8_yield_ns", yieldNS(8, 5_000, func(id int) int64 { return int64(id%3 + 1) }), "ns")
	return nil
}

// probeSim runs the six paper engines on the Sim at the canonical seed.
// Wall time per thousand nodes is what a Sim optimisation moves; the
// virtual counts are the reproduction itself and must not move at all.
func (p *probes) probeSim() error {
	s, err := solveSerial(engineProbeProg)
	if err != nil {
		return err
	}
	opt := adaptivetc.Options{Workers: simWorkers, Seed: canonicalSeed, Cutoff: simCutoff}
	serial, err := adaptivetc.NewSerial().Run(s.prog, adaptivetc.Options{Seed: canonicalSeed})
	if err != nil {
		return err
	}
	knodes := float64(s.nodes) / 1000
	for _, eng := range paperEngines() {
		wall, res, err := timedRuns(eng, s, opt, 3)
		if err != nil {
			return err
		}
		name := "sim." + eng.Name()
		p.set(name+".wall_us_per_knode", float64(wall.Microseconds())/knodes, "us")
		p.set(name+".speedup8", float64(serial.Makespan)/float64(res.Makespan), "ratio")
		switch eng.Name() {
		case "adaptivetc":
			p.set("sim.adaptivetc.tasks_per_knode", float64(res.Stats.TasksCreated)/knodes, "count")
			p.set("sim.adaptivetc.steals", float64(res.Stats.Steals), "count")
		case "cilk":
			p.set("sim.cilk.copies_per_knode", float64(res.Stats.WorkspaceCopies)/knodes, "count")
		case "tascell":
			profiled := opt
			profiled.Profile = true
			_, res, err := timedRuns(eng, s, profiled, 1)
			if err != nil {
				return err
			}
			p.set("sim.tascell.wait_share", ratio(res.Stats.WaitTime, res.Stats.WorkerTime), "ratio")
		}
	}
	return nil
}

// probeClusterSim times the deterministic cluster model on the job list of
// the paper-sim workload at the canonical seed.
func (p *probes) probeClusterSim() error {
	jobs := clusterJobList(canonicalSeed, clusterServiceNS)
	t0 := time.Now()
	rep, err := runClusterSim(canonicalSeed, jobs)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	p.set("cluster.sim.events_per_s", float64(len(rep.Events))/wall.Seconds(), "1/s")
	sojourn := make([]float64, 0, len(rep.SojournNS))
	for _, ns := range rep.SojournNS {
		sojourn = append(sojourn, float64(ns)/1e6)
	}
	p.set("cluster.sim.p99_sojourn_vms", percentile(sortedCopy(sojourn), 0.99), "ms")
	return nil
}

// probeExperiments times the reproducer's own Figure 5 at quick scale with
// one experiment cell per CPU.
func (p *probes) probeExperiments() error {
	t0 := time.Now()
	if err := experiments.Figure5(experiments.Config{Scale: experiments.Quick, Out: io.Discard, Seed: canonicalSeed, Parallel: runtime.NumCPU()}); err != nil {
		return err
	}
	p.set("experiments.fig5_quick_s", time.Since(t0).Seconds(), "s")
	return nil
}
