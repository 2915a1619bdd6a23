package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc"
	"adaptivetc/internal/core"
	"adaptivetc/internal/deque"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/dagflow"
	"adaptivetc/problems/fib"
)

// probeEntry is the deque payload of the micro-probes.
type probeEntry struct{}

func (*probeEntry) Special() bool { return false }

var entry deque.Entry = &probeEntry{}

// stealNS fills d and steals it empty, batch entries at a time, until
// microBudget has been spent stealing; it returns ns per entry taken.
func stealNS(d deque.WorkDeque, batch int) float64 {
	const fill = 1 << 14
	dst := make([]deque.Entry, batch)
	var spent time.Duration
	var taken int
	for spent < microBudget {
		for i := 0; i < fill; i++ {
			d.Push(entry)
		}
		t0 := time.Now()
		if batch == 1 {
			for i := 0; i < fill; i++ {
				if _, ok := d.Steal(); ok {
					taken++
				}
			}
		} else {
			for i := 0; i < fill/batch; i++ {
				taken += d.StealN(dst)
			}
		}
		spent += time.Since(t0)
		d.Reset()
	}
	return float64(spent.Nanoseconds()) / float64(taken)
}

// probeDeque times the owner and thief operations of each deque variant,
// alone and against each other.
func (p *probes) probeDeque() error {
	for _, v := range []struct {
		name string
		mk   func(capacity int) deque.WorkDeque
	}{
		{"the", func(c int) deque.WorkDeque { return deque.New(c, 20) }},
		{"growable", func(c int) deque.WorkDeque { return deque.NewGrowable(c, 20) }},
		{"relaxed", func(c int) deque.WorkDeque { return deque.NewRelaxed(c, 20) }},
	} {
		d := v.mk(64)
		p.set("deque."+v.name+".pushpop_ns", timeLoop(microBudget, func() {
			d.Push(entry)
			d.Pop()
		}), "ns")
		if v.name != "growable" {
			p.set("deque."+v.name+".steal_ns", stealNS(v.mk(1<<16), 1), "ns")
		}
	}
	p.set("deque.the.stealn8_ns_per_entry", stealNS(deque.New(1<<16, 20), 8), "ns")

	// Contended: the owner pushes and pops bursts of eight while one thief
	// steals as fast as it can.
	d := deque.New(1<<10, 20)
	var stop atomic.Bool
	var attempts, successes int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			attempts++
			if _, ok := d.Steal(); ok {
				successes++
			}
		}
	}()
	const burst = 8
	var pairs int
	t0 := time.Now()
	for time.Since(t0) < 2*microBudget {
		for i := 0; i < burst; i++ {
			d.Push(entry)
		}
		for i := 0; i < burst; i++ {
			d.Pop()
		}
		pairs += burst
	}
	spent := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	p.set("deque.the.contended_pushpop_ns", float64(spent.Nanoseconds())/float64(pairs), "ns")
	p.set("deque.the.contended_steal_success_share", ratio(successes, attempts), "ratio")
	return nil
}

// probePick times one victim selection per steal policy over eight deques
// of uneven depth.
func (p *probes) probePick() error {
	depths := []int{3, 1, 7, 0, 2, 9, 4, 6}
	ds := make([]deque.WorkDeque, len(depths))
	for i, n := range depths {
		ds[i] = deque.New(64, 20)
		for j := 0; j < n; j++ {
			ds[i].Push(entry)
		}
	}
	for _, name := range wsrt.StealPolicyNames() {
		th := wsrt.StealPolicyByName(name).NewThief(0, len(ds), p.seed)
		p.set("wsrt.steal.pick_ns."+name, timeLoop(microBudget/2, func() { th.Pick(ds) }), "ns")
	}
	return nil
}

// engineProbeProg is the program the per-engine probes run: big enough to
// steal from, small enough to repeat.
var engineProbeProg = progSpec{Program: "nqueens-array", N: 10}

var serialProbeProgs = []progSpec{
	{Program: "nqueens-array", N: 10},
	{Program: "sudoku-balanced", N: 42},
	{Program: "tree3", Size: 30000},
	{Program: "fib", N: 22},
}

const engineReps = 5

// probeEngines times every engine on the Real platform: cost per node at
// the workload width, one-worker overhead against serial (the paper's
// Table 2), AdaptiveTC's speedup, and the serial cost per node of each
// problem family.
func (p *probes) probeEngines() error {
	s, err := solveSerial(engineProbeProg)
	if err != nil {
		return err
	}
	perNode := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(s.nodes) }
	serial, _, err := timedRuns(adaptivetc.NewSerial(), s, adaptivetc.Options{Platform: adaptivetc.NewRealPlatform(1)}, engineReps)
	if err != nil {
		return err
	}
	for _, name := range []string{"adaptivetc", "cilk", "cilk-synched", "tascell", "cutoff-programmer", "cutoff-library", "helpfirst", "slaw"} {
		eng, err := adaptivetc.EngineByName(name)
		if err != nil {
			return err
		}
		opt := p.realOpts()
		opt.Cutoff = simCutoff
		wide, _, err := timedRuns(eng, s, opt, engineReps)
		if err != nil {
			return err
		}
		p.set("engine."+name+".ns_per_node", perNode(wide), "ns")
		if name == "adaptivetc" {
			p.set("engine.adaptivetc.speedup_p", float64(serial)/float64(wide), "ratio")
		}
		switch name {
		case "adaptivetc", "cilk", "cilk-synched", "tascell":
			opt.Workers = 1
			one, _, err := timedRuns(eng, s, opt, engineReps)
			if err != nil {
				return err
			}
			p.set("engine."+name+".overhead_1w", float64(one)/float64(serial), "ratio")
		}
	}
	for _, v := range []struct {
		name string
		set  func(*adaptivetc.Options)
	}{
		{"relaxed", func(o *adaptivetc.Options) { o.RelaxedDeque = true }},
		{"growable", func(o *adaptivetc.Options) { o.GrowableDeque = true }},
	} {
		opt := p.realOpts()
		v.set(&opt)
		d, _, err := timedRuns(adaptivetc.NewCilk(), s, opt, engineReps)
		if err != nil {
			return err
		}
		p.set("engine.cilk."+v.name+".ns_per_node", perNode(d), "ns")
	}
	for _, spec := range serialProbeProgs {
		sp, err := solveSerial(spec)
		if err != nil {
			return err
		}
		d, _, err := timedRuns(adaptivetc.NewSerial(), sp, adaptivetc.Options{Platform: adaptivetc.NewRealPlatform(1)}, 3)
		if err != nil {
			return err
		}
		p.set("problems."+spec.Program+".serial_ns_per_node", float64(d.Nanoseconds())/float64(sp.nodes), "ns")
	}
	return nil
}

// probeStealPolicies runs AdaptiveTC on the lopsided tree under each
// steal policy.
func (p *probes) probeStealPolicies() error {
	s, err := solveSerial(progSpec{Program: "tree3", Size: 30000})
	if err != nil {
		return err
	}
	for _, name := range wsrt.StealPolicyNames() {
		opt := p.realOpts()
		opt.StealPolicy = name
		d, _, err := timedRuns(adaptivetc.NewAdaptiveTC(), s, opt, engineReps)
		if err != nil {
			return err
		}
		p.set("steal."+name+".tree3_ms", float64(d)/float64(time.Millisecond), "ms")
	}
	return nil
}

// profiled runs eng once over every program of specs with the per-phase
// profile on and returns the summed statistics.
func (p *probes) profiled(eng adaptivetc.Engine, specs []progSpec) (adaptivetc.Stats, error) {
	var total adaptivetc.Stats
	for _, spec := range specs {
		s, err := solveSerial(spec)
		if err != nil {
			return total, err
		}
		opt := p.realOpts()
		opt.Profile = true
		_, res, err := timedRuns(eng, s, opt, 1)
		if err != nil {
			return total, err
		}
		total.Add(res.Stats)
	}
	return total, nil
}

// probeSched reads the scheduler's own counters and phase times from one
// profiled cycle of each search workload: the eager engine's task, copy and
// deque traffic, and the adaptive engine's steal, poll and wait behaviour.
func (p *probes) probeSched() error {
	eager, err := p.profiled(adaptivetc.NewCilk(), searchEagerProgs)
	if err != nil {
		return err
	}
	p.set("sched.tasks_per_knode", 1000*ratio(eager.TasksCreated, eager.Nodes), "count")
	p.set("sched.copies_per_knode", 1000*ratio(eager.WorkspaceCopies, eager.Nodes), "count")
	p.set("sched.copy_bytes_per_node", ratio(eager.WorkspaceBytes, eager.Nodes), "B")
	p.set("sched.work_share", ratio(eager.WorkTime, eager.WorkerTime), "ratio")
	p.set("sched.copy_share", ratio(eager.CopyTime, eager.WorkerTime), "ratio")
	p.set("sched.deque_share", ratio(eager.DequeTime, eager.WorkerTime), "ratio")
	p.set("sched.max_deque_depth", float64(eager.MaxDequeDepth), "count")

	adaptive, err := p.profiled(adaptivetc.NewAdaptiveTC(), searchAdaptiveProgs)
	if err != nil {
		return err
	}
	ops := int64(len(searchAdaptiveProgs))
	p.set("sched.steals_per_op", ratio(adaptive.Steals, ops), "count")
	p.set("sched.steal_success_share", ratio(adaptive.Steals, adaptive.Steals+adaptive.StealFails), "ratio")
	p.set("sched.special_per_op", ratio(adaptive.SpecialTasks, ops), "count")
	p.set("sched.need_task_polls_per_knode", 1000*ratio(adaptive.Polls, adaptive.Nodes), "count")
	p.set("sched.poll_share", ratio(adaptive.PollTime, adaptive.WorkerTime), "ratio")
	p.set("sched.wait_share", ratio(adaptive.WaitTime, adaptive.WorkerTime), "ratio")
	p.set("sched.steal_share", ratio(adaptive.StealTime, adaptive.WorkerTime), "ratio")
	p.set("sched.fake_share", ratio(adaptive.FakeTasks, adaptive.FakeTasks+adaptive.TasksCreated+adaptive.SpecialTasks), "ratio")
	return nil
}

// probeRoundTrips times a trivial job through the batch path, which builds
// deques and workers per run, and through a resident pool.
func (p *probes) probeRoundTrips() error {
	prog := fib.New(5)
	var runErr error
	batch := timeLoop(microBudget, func() {
		res, err := adaptivetc.NewAdaptiveTC().Run(prog, p.realOpts())
		if err == nil && res.Value != 5 {
			err = errWrongValue
		}
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	p.set("wsrt.batch.roundtrip_us", batch/1e3, "us")

	pool := wsrt.NewPool(wsrt.PoolConfig{Workers: workers(), QueueCapacity: 8})
	defer pool.Close()
	eng := core.New()
	roundTrip := func() {
		h, err := pool.Submit(wsrt.JobSpec{Prog: prog, Engine: eng})
		if err == nil {
			var res adaptivetc.Result
			if res, err = h.Result(); err == nil && res.Value != 5 {
				err = errWrongValue
			}
		}
		if err != nil {
			runErr = err
		}
	}
	p.set("wsrt.pool.roundtrip_us", timeLoop(microBudget, roundTrip)/1e3, "us")
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	p.set("wsrt.pool.roundtrip_allocs", float64(after.Mallocs-before.Mallocs)/n, "count")
	return runErr
}

// probeIdle runs a dependency chain of width one, which has no parallelism
// at all, on every worker, and reports CPU time over wall time: 1.0 means
// the idle workers cost nothing, the worker count means they spin.
func (p *probes) probeIdle() error {
	chain := dagflow.NewLayered(3000, 1, canonicalSeed)
	want := chain.WantValue()
	cpu0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < 4*microBudget {
		res, err := adaptivetc.NewAdaptiveTC().Run(chain, p.realOpts())
		if err != nil {
			return err
		}
		if res.Value != want {
			return errWrongValue
		}
	}
	p.set("wsrt.idle.cpu_per_wall", float64(cpuTime()-cpu0)/float64(time.Since(t0)), "ratio")
	return nil
}
