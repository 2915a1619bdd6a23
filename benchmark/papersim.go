package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"adaptivetc"
	"adaptivetc/internal/cluster"
)

// paperSimProgs are the Sim-platform programs: one per problem family the
// paper's figures sweep, sized so a cycle of all ops takes about a second.
var paperSimProgs = []progSpec{
	{Program: "nqueens-array", N: 10},
	{Program: "sudoku-balanced", N: 42},
	{Program: "tree3", Size: 20000},
	{Program: "fib", N: 22},
}

// simWorkers is the virtual machine width, the paper's eight cores.
const simWorkers = 8

// simCutoff is the Cutoff-programmer depth the experiments use.
const simCutoff = 3

// paperEngines are the six parallel engines of the paper's comparison.
func paperEngines() []adaptivetc.Engine { return adaptivetc.Engines()[1:] }

// Cluster Sim op shape.
const (
	clusterNodes = 4
	clusterJobs  = 2000
)

// clusterServiceNS are the virtual service times cluster Sim jobs draw
// from: the magnitudes of an AdaptiveTC Sim makespan on the small, middle
// and large programs above.
var clusterServiceNS = []int64{400_000, 700_000, 2_000_000}

// simOp is one op kind of paper-sim: an engine run or the cluster Sim.
type simOp struct {
	name string
	run  func() (fingerprint, error)

	mu    sync.Mutex
	first *fingerprint
}

// fingerprint is everything about a Sim run that must repeat exactly.
type fingerprint struct {
	value    int64
	makespan int64
	stats    adaptivetc.Stats // zero for the cluster Sim
	events   uint64           // hash of the cluster Sim's event log
}

// check fails unless fp equals the first fingerprint this op produced in
// this run. Determinism is checked inside the run, not against a frozen
// golden, so a later cost-model fix is not a failure.
func (o *simOp) check(fp fingerprint) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.first == nil {
		o.first = &fp
		return nil
	}
	if *o.first != fp {
		return fmt.Errorf("%s did not repeat: first %+v, now %+v", o.name, *o.first, fp)
	}
	return nil
}

// clusterJobList draws the cluster Sim's jobs from the seed: 80% arrive at
// node 0, service times come from three engine makespans, and arrivals are
// Poisson at 1.6 jobs per mean service time — more than the hot node can
// take alone, less than the cluster can.
func clusterJobList(seed int64, service []int64) []cluster.SimJob {
	rng := rand.New(rand.NewSource(seed))
	var mean int64
	for _, s := range service {
		mean += s
	}
	mean /= int64(len(service))
	jobs := make([]cluster.SimJob, clusterJobs)
	var t int64
	for i := range jobs {
		node := 0
		if rng.Intn(5) == 4 {
			node = 1 + rng.Intn(clusterNodes-1)
		}
		t += int64(rng.ExpFloat64() * float64(mean) / 1.6)
		jobs[i] = cluster.SimJob{ID: i, Node: node, ArriveNS: t, ServiceNS: service[rng.Intn(len(service))], Value: int64(1000 + i)}
	}
	return jobs
}

// runClusterSim runs the cluster Sim over jobs and checks its own report.
func runClusterSim(seed int64, jobs []cluster.SimJob) (*cluster.SimReport, error) {
	rep, err := cluster.RunSim(cluster.SimConfig{Nodes: clusterNodes, Seed: seed}, jobs)
	if err != nil {
		return nil, err
	}
	if len(rep.Violations) > 0 {
		return nil, fmt.Errorf("cluster sim: %d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	if rep.Completed != len(jobs) {
		return nil, fmt.Errorf("cluster sim: %d of %d jobs completed", rep.Completed, len(jobs))
	}
	for _, j := range jobs {
		if rep.Values[j.ID] != j.Value {
			return nil, fmt.Errorf("cluster sim: job %d returned %d, want %d", j.ID, rep.Values[j.ID], j.Value)
		}
	}
	return rep, nil
}

// hashEvents folds the event log into one number; it runs inside every
// cluster op, so it formats nothing.
func hashEvents(events []cluster.SimEvent) uint64 {
	h := fnv.New64a()
	var num [32]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(num[0:], uint64(e.T))
		binary.LittleEndian.PutUint64(num[8:], uint64(e.Node))
		binary.LittleEndian.PutUint64(num[16:], uint64(e.Job))
		binary.LittleEndian.PutUint64(num[24:], uint64(e.Peer))
		h.Write(num[:])
		io.WriteString(h, e.Kind)
	}
	return h.Sum64()
}

// setupPaperSim builds the reproducer's workload: every driver pulls the
// next op from one seeded list, as experiments.runner does with its cells.
func setupPaperSim(seed int64) (*instance, error) {
	progs, err := solveAll(paperSimProgs)
	if err != nil {
		return nil, err
	}
	var ops []*simOp
	for _, eng := range paperEngines() {
		for _, p := range progs {
			eng, p := eng, p
			ops = append(ops, &simOp{
				name: eng.Name() + "/" + p.spec.String(),
				run: func() (fingerprint, error) {
					res, err := eng.Run(p.prog, adaptivetc.Options{Workers: simWorkers, Seed: seed, Cutoff: simCutoff})
					if err != nil {
						return fingerprint{}, err
					}
					if res.Value != p.want {
						return fingerprint{}, fmt.Errorf("value %d, serial oracle %d", res.Value, p.want)
					}
					return fingerprint{value: res.Value, makespan: res.Makespan, stats: res.Stats}, nil
				},
			})
		}
	}
	jobs := clusterJobList(seed, clusterServiceNS)
	ops = append(ops, &simOp{
		name: "cluster.RunSim",
		run: func() (fingerprint, error) {
			rep, err := runClusterSim(seed, jobs)
			if err != nil {
				return fingerprint{}, err
			}
			return fingerprint{value: int64(rep.Completed), makespan: rep.MakespanNS, events: hashEvents(rep.Events)}, nil
		},
	})
	sched := newSchedule(seed, len(ops))
	return &instance{
		clients: loadClients(),
		op: func(_ int, k int64, tr *opTrace) (time.Duration, error) {
			op := ops[sched.at(k)]
			done := tr.span("sim.run")
			fp, err := op.run()
			done()
			if err != nil {
				return 0, fmt.Errorf("%s: %w", op.name, err)
			}
			defer tr.span("verify")()
			return 0, op.check(fp)
		},
		close: func() {},
	}, nil
}
