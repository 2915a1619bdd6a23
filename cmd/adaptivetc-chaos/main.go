// Command adaptivetc-chaos runs seeded fault-injection soak campaigns
// against the scheduling engines, the resident pool, and the deterministic
// cluster model, and reports a per-fault verdict table. Every case is
// identified by a replay tuple
//
//	<mode>/w<workers>/<engine>/<program>/<scenario>/<seed>     (sim, pool)
//	cluster/n<nodes>/<engine>/<program>/<scenario>/<seed>      (cluster)
//
// printed whenever the case fails; `adaptivetc-chaos -replay <tuple>` runs
// exactly that case again (twice, on Sim, verifying the two runs are
// byte-identical), so any chaos failure is a one-line regression.
//
// Cluster campaigns soak the network-fault scenarios (drop, delay,
// duplication, partition) against an N-node Sim cluster: every case runs
// twice and the two event logs must be byte-identical, every job must
// complete with the serial oracle's value, and the model's conservation
// invariants must hold.
//
// Usage:
//
//	adaptivetc-chaos -duration 20s                      # full soak
//	adaptivetc-chaos -mode sim -scenarios panic,stall   # targeted
//	adaptivetc-chaos -mode cluster -scenarios net-drop,partition
//	adaptivetc-chaos -replay sim/w4/adaptivetc/nqueens-array=6/steal-burst/7
//	adaptivetc-chaos -replay cluster/n3/adaptivetc/fib=14/net-mixed/7
//
// Verdicts per case: "completed" runs must produce the serial oracle's
// value and an invariant-clean trace (trace.Recorder.Check); "aborted"
// runs — injected panic, forced overflow, deadline — must surface a known
// abort class and a truncation-clean trace (trace.Laws{Truncated: true}); "rejected"
// submissions must surface ErrQueueFull. Anything else (wrong value,
// invariant violation, unexpected panic class, leaked goroutines) fails
// the process with exit status 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"adaptivetc"
	"adaptivetc/internal/cluster"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

// chaosEngine is the intersection the campaigns need: batch Run for Sim
// cases and NewExec for resident-pool jobs.
type chaosEngine interface {
	sched.Engine
	wsrt.PoolEngine
}

// engineByName resolves a row of the engine table that can do both.
func engineByName(name string) (chaosEngine, error) {
	e, _ := adaptivetc.EngineByName(name)
	if ce, ok := e.(chaosEngine); ok {
		return ce, nil
	}
	return nil, fmt.Errorf("engine %q is unknown or not pool-capable (have %v)", name, adaptivetc.PoolEngineNames())
}

// progSpec is one "name=N" program instance.
type progSpec struct {
	name string
	n    int
}

func (p progSpec) String() string {
	if p.n == 0 {
		return p.name
	}
	return fmt.Sprintf("%s=%d", p.name, p.n)
}

func (p progSpec) build() (sched.Program, error) {
	return registry.Build(p.name, registry.Params{N: p.n})
}

func parsePrograms(csv string) ([]progSpec, error) {
	var out []progSpec
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ps := progSpec{name: part}
		if name, nStr, ok := strings.Cut(part, "="); ok {
			n, err := strconv.Atoi(nStr)
			if err != nil {
				return nil, fmt.Errorf("bad program %q: %v", part, err)
			}
			ps = progSpec{name: name, n: n}
		}
		if _, err := ps.build(); err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	if len(out) == 0 {
		return nil, errors.New("no programs")
	}
	return out, nil
}

// caseSpec identifies one chaos case; its tuple is the replay handle. In
// cluster mode, workers holds the node count and the tuple renders it as
// n<N> rather than w<N>.
type caseSpec struct {
	mode     string // "sim", "pool" or "cluster"
	workers  int
	engine   string
	prog     progSpec
	scenario string
	seed     int64
}

func (c caseSpec) tuple() string {
	w := fmt.Sprintf("w%d", c.workers)
	if c.mode == "cluster" {
		w = fmt.Sprintf("n%d", c.workers)
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s/%d", c.mode, w, c.engine, c.prog, c.scenario, c.seed)
}

func parseTuple(s string) (caseSpec, error) {
	parts := strings.Split(strings.TrimSpace(s), "/")
	if len(parts) != 6 {
		return caseSpec{}, fmt.Errorf("replay tuple needs 6 '/'-separated fields, got %q", s)
	}
	var c caseSpec
	c.mode = parts[0]
	prefix := "w"
	switch c.mode {
	case "sim", "pool":
	case "cluster":
		prefix = "n"
	default:
		return c, fmt.Errorf("replay mode must be sim, pool or cluster, got %q", c.mode)
	}
	w, err := strconv.Atoi(strings.TrimPrefix(parts[1], prefix))
	if err != nil || w <= 0 {
		return c, fmt.Errorf("bad %s field %q", map[string]string{"w": "worker", "n": "node"}[prefix], parts[1])
	}
	c.workers = w
	c.engine = parts[2]
	if _, err := engineByName(c.engine); err != nil {
		return c, err
	}
	progs, err := parsePrograms(parts[3])
	if err != nil {
		return c, err
	}
	c.prog = progs[0]
	c.scenario = parts[4]
	if _, err := faults.Scenario(c.scenario, 1); err != nil {
		return c, err
	}
	c.seed, err = strconv.ParseInt(parts[5], 10, 64)
	if err != nil {
		return c, fmt.Errorf("bad seed %q", parts[5])
	}
	return c, nil
}

// verdict is one case's outcome. err non-nil means the case FAILED (wrong
// value, invariant violation, unexpected panic, leak); class records how
// the run ended for the per-fault table.
type verdict struct {
	c     caseSpec
	class string // "completed", "aborted", "rejected"
	err   error
}

// oracles caches the serial reference value per program instance.
type oracles struct{ m map[string]int64 }

func (o *oracles) value(p progSpec) (int64, error) {
	if o.m == nil {
		o.m = map[string]int64{}
	}
	if v, ok := o.m[p.String()]; ok {
		return v, nil
	}
	prog, err := p.build()
	if err != nil {
		return 0, err
	}
	res, err := sched.Serial{}.Run(prog, sched.Options{})
	if err != nil {
		return 0, err
	}
	o.m[p.String()] = res.Value
	return res.Value, nil
}

// knownAbort reports whether err is an abort class chaos is allowed to
// surface: injected/organic overflow, injected/organic panic quarantine,
// deadline or cancellation, pool shutdown.
func knownAbort(err error) bool {
	return errors.Is(err, sched.ErrDequeOverflow) ||
		errors.Is(err, wsrt.ErrJobPanicked) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, wsrt.ErrPoolClosed)
}

// simOutcome captures everything observable about one Sim case, for the
// byte-identical replay comparison.
type simOutcome struct {
	Value   int64
	Err     string
	Workers [][]trace.Event
	Deques  [][]trace.DequeEvent
}

// runSim executes one case on the Sim platform with a fresh recorder and
// returns its verdict plus the full observable outcome. A panic escaping
// the batch runtime (the injected program-panic fault propagates on batch
// runs by design) is recovered here and classified.
func runSim(c caseSpec, orc *oracles) (verdict, *simOutcome) {
	v := verdict{c: c}
	eng, err := engineByName(c.engine)
	if err != nil {
		v.err = err
		return v, nil
	}
	prog, err := c.prog.build()
	if err != nil {
		v.err = err
		return v, nil
	}
	want, err := orc.value(c.prog)
	if err != nil {
		v.err = fmt.Errorf("serial oracle: %w", err)
		return v, nil
	}
	spec, err := faults.Scenario(c.scenario, c.seed)
	if err != nil {
		v.err = err
		return v, nil
	}
	rec := trace.NewRecorder()
	defer rec.Release()
	opt := sched.Options{
		Workers: c.workers,
		Seed:    c.seed,
		Tracer:  rec,
		Faults:  faults.New(spec),
	}
	res, runErr := func() (res sched.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(faults.PanicValue); ok {
					err = fmt.Errorf("%w: %v", wsrt.ErrJobPanicked, r)
					return
				}
				err = fmt.Errorf("unexpected panic class: %v", r)
			}
		}()
		return eng.Run(prog, opt)
	}()

	out := &simOutcome{Value: res.Value}
	if runErr != nil {
		out.Err = runErr.Error()
	}
	for i := 0; i < rec.Workers(); i++ {
		out.Workers = append(out.Workers, append([]trace.Event(nil), rec.WorkerLog(i).Events()...))
		out.Deques = append(out.Deques, append([]trace.DequeEvent(nil), rec.DequeLog(i).Events()...))
	}

	classify(&v, res.Value, want, runErr, rec)
	return v, out
}

// classify sets how a run ended and whether that is within contract: a
// completed run must carry the serial oracle's value and an invariant-clean
// trace, an aborted one a known abort class and a truncation-clean trace.
func classify(v *verdict, value, want int64, runErr error, rec *trace.Recorder) {
	switch {
	case runErr == nil:
		v.class = "completed"
		if value != want {
			v.err = fmt.Errorf("wrong value: got %d, serial oracle %d", value, want)
		} else if cerr := rec.Check(value, want); cerr != nil {
			v.err = fmt.Errorf("invariant violation: %w", cerr)
		}
	case knownAbort(runErr):
		v.class = "aborted"
		if cerr := rec.CheckLaws(trace.Laws{Truncated: true}); cerr != nil {
			v.err = fmt.Errorf("invariant violation in aborted run (%v): %w", runErr, cerr)
		}
	default:
		v.class = "aborted"
		v.err = fmt.Errorf("unknown abort class: %w", runErr)
	}
}

// runPoolCampaign drives one scenario against a sharded resident pool:
// the scenario's plan injects at both levels (admission/shard starvation on
// the pool, worker/deque faults per job — the same spec with the pool-level
// rates cleared and the job's seed). Every job gets its own recorder and a
// safety deadline so a wedge surfaces as an abort, not a hang.
func runPoolCampaign(scenario string, seed int64, engines []string, programs []progSpec,
	workers, jobs int, orc *oracles) []verdict {
	spec, err := faults.Scenario(scenario, seed)
	if err != nil {
		return []verdict{{c: caseSpec{mode: "pool", scenario: scenario, seed: seed}, err: err}}
	}
	plan := faults.New(spec)
	maxJobs := 2
	if workers < 2 {
		maxJobs = 1
	}
	pool := wsrt.NewPool(wsrt.PoolConfig{
		Workers:           workers,
		MaxConcurrentJobs: maxJobs,
		Options:           sched.Options{Seed: seed},
		Faults:            plan,
	})

	type inflight struct {
		c   caseSpec
		h   *wsrt.JobHandle
		rec *trace.Recorder
	}
	var verdicts []verdict
	var running []inflight
	for i := 0; i < jobs; i++ {
		c := caseSpec{
			mode:     "pool",
			workers:  workers,
			engine:   engines[i%len(engines)],
			prog:     programs[i%len(programs)],
			scenario: scenario,
			seed:     seed + int64(i),
		}
		eng, err := engineByName(c.engine)
		if err != nil {
			verdicts = append(verdicts, verdict{c: c, err: err})
			continue
		}
		prog, err := c.prog.build()
		if err != nil {
			verdicts = append(verdicts, verdict{c: c, err: err})
			continue
		}
		jobSpec := spec
		jobSpec.Seed, jobSpec.Reject, jobSpec.Starve = c.seed, 0, 0
		rec := trace.NewRecorder()
		h, err := pool.Submit(wsrt.JobSpec{
			Prog:     prog,
			Engine:   eng,
			Tracer:   rec,
			Faults:   faults.New(jobSpec),
			Deadline: 10 * time.Second,
		})
		if err != nil {
			rec.Release()
			v := verdict{c: c, class: "rejected"}
			if !errors.Is(err, wsrt.ErrQueueFull) && !errors.Is(err, wsrt.ErrPoolClosed) {
				v.err = fmt.Errorf("unknown rejection class: %w", err)
			}
			verdicts = append(verdicts, v)
			continue
		}
		running = append(running, inflight{c: c, h: h, rec: rec})
	}
	for _, f := range running {
		res, runErr := f.h.Result()
		v := verdict{c: f.c}
		if want, oerr := orc.value(f.c.prog); oerr != nil {
			v.err = fmt.Errorf("serial oracle: %w", oerr)
		} else {
			classify(&v, res.Value, want, runErr, f.rec)
		}
		f.rec.Release()
		verdicts = append(verdicts, v)
	}
	pool.Close()
	return verdicts
}

// clusterCosts memoizes the (service time, value) a program instance
// contributes to a cluster case: one deterministic Sim-platform engine run
// supplies the virtual makespan and the result, checked against the serial
// oracle. RunSim's jobs carry these as plain numbers, so the cluster model
// never re-executes the program.
type clusterCosts struct{ m map[string]costEntry }

type costEntry struct{ svcNS, value int64 }

func (cc *clusterCosts) get(engine string, p progSpec, orc *oracles) (costEntry, error) {
	if cc.m == nil {
		cc.m = map[string]costEntry{}
	}
	key := engine + "/" + p.String()
	if e, ok := cc.m[key]; ok {
		return e, nil
	}
	prog, err := p.build()
	if err != nil {
		return costEntry{}, err
	}
	eng, err := engineByName(engine)
	if err != nil {
		return costEntry{}, err
	}
	res, err := eng.Run(prog, sched.Options{Workers: 2, Seed: 42})
	if err != nil {
		return costEntry{}, fmt.Errorf("cluster cost run: %w", err)
	}
	want, err := orc.value(p)
	if err != nil {
		return costEntry{}, fmt.Errorf("serial oracle: %w", err)
	}
	if res.Value != want {
		return costEntry{}, fmt.Errorf("cluster cost run: %s/%s value %d != serial oracle %d",
			engine, p, res.Value, want)
	}
	e := costEntry{svcNS: int64(res.Makespan), value: res.Value}
	if e.svcNS <= 0 {
		e.svcNS = 1_000_000
	}
	cc.m[key] = e
	return e, nil
}

// clusterJobs builds the skewed deterministic job set for one cluster
// case: 80% of arrivals land on node 0, the rest round-robin over the
// colder nodes, and the aggregate arrival rate is 4 jobs per service time
// — well past one node's capacity, so forwarding and stealing must fire
// for the run to finish in bounded virtual time.
func clusterJobs(nodes, count int, e costEntry) []cluster.SimJob {
	jobs := make([]cluster.SimJob, count)
	for i := range jobs {
		node := 0
		if i%5 == 4 && nodes > 1 {
			node = 1 + (i/5)%(nodes-1)
		}
		jobs[i] = cluster.SimJob{
			ID:        i,
			Node:      node,
			ArriveNS:  int64(i) * e.svcNS / 4,
			ServiceNS: e.svcNS,
			Value:     e.value,
		}
	}
	return jobs
}

// runCluster executes one cluster case twice and verifies the two event
// logs are byte-identical — so every soak case doubles as a replay check
// — then applies the contract: zero invariant violations, every job
// completed, every first completion carrying the oracle value.
func runCluster(c caseSpec, orc *oracles, costs *clusterCosts) (verdict, *cluster.SimReport) {
	v := verdict{c: c}
	spec, err := faults.Scenario(c.scenario, c.seed)
	if err != nil {
		v.err = err
		return v, nil
	}
	e, err := costs.get(c.engine, c.prog, orc)
	if err != nil {
		v.err = err
		return v, nil
	}
	jobs := clusterJobs(c.workers, 24, e)
	run := func() (*cluster.SimReport, error) {
		// Fresh Plan per run: the fault streams are stateful. Network
		// timing scales with the service time so gossip, forwarding and
		// stealing actually fire within the workload's virtual lifetime —
		// engine makespans span orders of magnitude across programs.
		return cluster.RunSim(cluster.SimConfig{
			Nodes:         c.workers,
			Seed:          c.seed,
			BaseLatencyNS: e.svcNS/16 + 1,
			JitterNS:      e.svcNS/64 + 1,
			GossipEveryNS: e.svcNS/2 + 1,
			Faults:        faults.New(spec),
		}, jobs)
	}
	rep1, err1 := run()
	rep2, err2 := run()
	if err1 != nil || err2 != nil {
		v.err = errors.Join(err1, err2)
		return v, rep1
	}
	v.class = "completed"
	switch {
	case !reflect.DeepEqual(rep1.Events, rep2.Events):
		v.err = fmt.Errorf("replay diverged: %d vs %d events", len(rep1.Events), len(rep2.Events))
	case len(rep1.Violations) > 0:
		v.err = fmt.Errorf("invariant violation: %s", strings.Join(rep1.Violations, "; "))
	case rep1.Completed != len(jobs):
		v.err = fmt.Errorf("%d of %d jobs completed", rep1.Completed, len(jobs))
	default:
		for id, got := range rep1.Values {
			if got != e.value {
				v.err = fmt.Errorf("job %d: wrong value %d, serial oracle %d", id, got, e.value)
				break
			}
		}
	}
	return v, rep1
}

// benchSide is one arm of the forwarding on/off comparison, in virtual
// time (the Sim clock, not wall clock).
type benchSide struct {
	Completed    int     `json:"completed"`
	Duplicates   int     `json:"duplicates"`
	ForwardedIn  int     `json:"forwarded_in"`
	StealsServed int     `json:"steals_served"`
	P50Ms        float64 `json:"p50_ms_virtual"`
	P90Ms        float64 `json:"p90_ms_virtual"`
	P99Ms        float64 `json:"p99_ms_virtual"`
	MakespanMs   float64 `json:"makespan_ms_virtual"`
	PerNodeDone  []int   `json:"per_node_completed"`
}

// benchCluster runs the BENCH_cluster.json experiment: a 2-node Sim
// cluster under 80/20-skewed load at 1.6 jobs per service time — past the
// hot node's capacity on its own, comfortably inside the pair's — with the
// forward/steal plane on vs off (threshold pushed out of reach), and
// prints the virtual-time sojourn comparison as JSON. Deterministic: the
// same seed reproduces the same report byte for byte.
func benchCluster(seed int64, orc *oracles, costs *clusterCosts) int {
	p := progSpec{name: "fib", n: 14}
	engine := adaptivetc.NewAdaptiveTC().Name()
	e, err := costs.get(engine, p, orc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-chaos: %v\n", err)
		return 1
	}
	const count = 200
	jobs := make([]cluster.SimJob, count)
	for i := range jobs {
		node := 0
		if i%5 == 4 {
			node = 1
		}
		jobs[i] = cluster.SimJob{
			ID: i, Node: node,
			ArriveNS:  int64(i) * e.svcNS * 5 / 8, // aggregate 1.6 jobs per service time
			ServiceNS: e.svcNS,
			Value:     e.value,
		}
	}
	run := func(forwarding bool) (*benchSide, error) {
		cfg := cluster.SimConfig{
			Nodes: 2, Seed: seed,
			BaseLatencyNS: e.svcNS/16 + 1,
			JitterNS:      e.svcNS/64 + 1,
			GossipEveryNS: e.svcNS/2 + 1,
		}
		if !forwarding {
			// Gap and victim-load thresholds no backlog can reach: the
			// nodes still gossip, but never shed or steal.
			cfg.Policy = cluster.Policy{ForwardThreshold: 1 << 30, StealMinScore: 1 << 30}
		}
		rep, err := cluster.RunSim(cfg, jobs)
		if err != nil {
			return nil, err
		}
		if len(rep.Violations) > 0 {
			return nil, fmt.Errorf("violations: %s", strings.Join(rep.Violations, "; "))
		}
		if rep.Completed != count {
			return nil, fmt.Errorf("%d of %d jobs completed", rep.Completed, count)
		}
		soj := make([]int64, 0, count)
		for _, s := range rep.SojournNS {
			soj = append(soj, s)
		}
		sort.Slice(soj, func(i, j int) bool { return soj[i] < soj[j] })
		pct := func(q float64) float64 {
			idx := int(q*float64(len(soj))+0.5) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(soj) {
				idx = len(soj) - 1
			}
			return float64(soj[idx]) / 1e6
		}
		side := &benchSide{
			Completed:  rep.Completed,
			Duplicates: rep.Duplicates,
			P50Ms:      pct(0.50),
			P90Ms:      pct(0.90),
			P99Ms:      pct(0.99),
			MakespanMs: float64(rep.MakespanNS) / 1e6,
		}
		for _, st := range rep.PerNode {
			side.ForwardedIn += st.ForwardedIn
			side.StealsServed += st.StealsServed
			side.PerNodeDone = append(side.PerNodeDone, st.Completed)
		}
		return side, nil
	}
	on, err := run(true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-chaos: forwarding on: %v\n", err)
		return 1
	}
	off, err := run(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-chaos: forwarding off: %v\n", err)
		return 1
	}
	out := struct {
		Description string     `json:"description"`
		Engine      string     `json:"engine"`
		Program     string     `json:"program"`
		ServiceNS   int64      `json:"service_ns_virtual"`
		Nodes       int        `json:"nodes"`
		Jobs        int        `json:"jobs"`
		Skew        string     `json:"skew"`
		ArrivalRate float64    `json:"arrival_rate_per_service_time"`
		Seed        int64      `json:"seed"`
		On          *benchSide `json:"forwarding_on"`
		Off         *benchSide `json:"forwarding_off"`
		Improvement float64    `json:"p99_improvement_pct"`
	}{
		Description: "Deterministic 2-node Sim cluster, 80/20 skewed arrivals at 1.6 jobs " +
			"per service time: the hot node is overloaded alone, the pair is not. " +
			"Sojourn percentiles in virtual milliseconds, forward/steal plane on vs off. " +
			"Regenerate with: adaptivetc-chaos -cluster-bench -seed 20100424",
		Engine: engine, Program: p.String(), ServiceNS: e.svcNS,
		Nodes: 2, Jobs: count, Skew: "80/20", ArrivalRate: 1.6, Seed: seed,
		On: on, Off: off,
		Improvement: 100 * (off.P99Ms - on.P99Ms) / off.P99Ms,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-chaos: %v\n", err)
		return 1
	}
	if out.Improvement < 20 {
		fmt.Fprintf(os.Stderr, "adaptivetc-chaos: p99 improvement %.1f%% below the 20%% bar\n", out.Improvement)
		return 1
	}
	return 0
}

// replay runs one Sim case twice and verifies the runs are byte-identical:
// same value, same error, same per-worker event streams, same per-deque
// FSM transitions. Pool tuples replay as a single-job campaign (outcomes
// on the Real platform are seed-reproducible per stream but interleavings
// are not byte-comparable, so only the verdict is checked).
func replay(c caseSpec, orc *oracles) int {
	if c.mode == "cluster" {
		v, rep := runCluster(c, orc, &clusterCosts{})
		fmt.Printf("%s: %s\n", c.tuple(), verdictString(v))
		if rep != nil && v.err == nil {
			fmt.Printf("replayed byte-identically: %d jobs completed, %d duplicates, %d events, makespan %.2fms virtual\n",
				rep.Completed, rep.Duplicates, len(rep.Events), float64(rep.MakespanNS)/1e6)
		}
		if v.err != nil {
			return 1
		}
		return 0
	}
	if c.mode == "pool" {
		vs := runPoolCampaign(c.scenario, c.seed, []string{c.engine}, []progSpec{c.prog}, c.workers, 1, orc)
		bad := 0
		for _, v := range vs {
			fmt.Printf("%s: %s\n", v.c.tuple(), verdictString(v))
			if v.err != nil {
				bad++
			}
		}
		if bad > 0 {
			return 1
		}
		return 0
	}
	v1, o1 := runSim(c, orc)
	v2, o2 := runSim(c, orc)
	fmt.Printf("%s: %s\n", c.tuple(), verdictString(v1))
	if !reflect.DeepEqual(o1, o2) {
		fmt.Printf("REPLAY DIVERGED: two runs of %s produced different schedules\n", c.tuple())
		return 1
	}
	fmt.Printf("replayed byte-identically: value=%d err=%q events=%d\n",
		o1.Value, o1.Err, countEvents(o1))
	if v1.err != nil || v2.err != nil {
		return 1
	}
	return 0
}

func countEvents(o *simOutcome) int {
	n := 0
	for _, evs := range o.Workers {
		n += len(evs)
	}
	return n
}

func verdictString(v verdict) string {
	if v.err != nil {
		return fmt.Sprintf("FAIL (%s): %v", v.class, v.err)
	}
	return v.class
}

func main() {
	seed := flag.Int64("seed", 20100424, "master seed; every case seed derives from it")
	duration := flag.Duration("duration", 20*time.Second, "soak budget")
	mode := flag.String("mode", "all", "campaign mode: sim, pool, cluster, or all")
	workers := flag.Int("workers", 4, "workers per case (pool size in pool mode)")
	jobs := flag.Int("jobs", 16, "jobs per pool campaign")
	enginesCSV := flag.String("engines", strings.Join(adaptivetc.PoolEngineNames(), ","), "engines to soak")
	programsCSV := flag.String("programs", "nqueens-array=6,fib=14,knight=4,dag-layered=4,bnb-knapsack=12", "programs (name or name=N)")
	scenariosCSV := flag.String("scenarios", strings.Join(faults.Scenarios(), ","), "fault scenarios")
	replayTuple := flag.String("replay", "", "replay one case tuple and exit")
	clusterBench := flag.Bool("cluster-bench", false, "run the forwarding on/off latency comparison and print JSON")
	verbose := flag.Bool("v", false, "print every case verdict")
	flag.Parse()

	orc := &oracles{}
	costs := &clusterCosts{}
	if *replayTuple != "" {
		c, err := parseTuple(*replayTuple)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptivetc-chaos: %v\n", err)
			os.Exit(2)
		}
		os.Exit(replay(c, orc))
	}
	if *clusterBench {
		os.Exit(benchCluster(*seed, orc, costs))
	}

	programs, err := parsePrograms(*programsCSV)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivetc-chaos: %v\n", err)
		os.Exit(2)
	}
	var engines []string
	for _, e := range strings.Split(*enginesCSV, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if _, err := engineByName(e); err != nil {
			fmt.Fprintf(os.Stderr, "adaptivetc-chaos: %v\n", err)
			os.Exit(2)
		}
		engines = append(engines, e)
	}
	var scenarios []string
	for _, s := range strings.Split(*scenariosCSV, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if _, err := faults.Scenario(s, 1); err != nil {
			fmt.Fprintf(os.Stderr, "adaptivetc-chaos: %v\n", err)
			os.Exit(2)
		}
		scenarios = append(scenarios, s)
	}

	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)

	// tally[scenario][class] plus failures collected globally.
	tally := map[string]map[string]int{}
	var failures []verdict
	record := func(v verdict) {
		if tally[v.c.scenario] == nil {
			tally[v.c.scenario] = map[string]int{}
		}
		key := v.class
		if v.err != nil {
			key = "FAILED"
			failures = append(failures, v)
			fmt.Printf("FAIL %s: %v\n", v.c.tuple(), v.err)
			fmt.Printf("  replay with: adaptivetc-chaos -replay %s\n", v.c.tuple())
		} else if *verbose {
			fmt.Printf("ok   %s: %s\n", v.c.tuple(), v.class)
		}
		tally[v.c.scenario][key]++
	}

	cases := 0
	for round := 0; time.Now().Before(deadline); round++ {
		for _, scen := range scenarios {
			if !time.Now().Before(deadline) {
				break
			}
			if *mode == "sim" || *mode == "all" {
				c := caseSpec{
					mode:     "sim",
					workers:  *workers,
					engine:   engines[rng.Intn(len(engines))],
					prog:     programs[rng.Intn(len(programs))],
					scenario: scen,
					seed:     rng.Int63n(1 << 30),
				}
				v, _ := runSim(c, orc)
				record(v)
				cases++
			}
			if *mode == "pool" || *mode == "all" {
				campaignSeed := rng.Int63n(1 << 30)
				for _, v := range runPoolCampaign(scen, campaignSeed, engines, programs, *workers, *jobs, orc) {
					record(v)
					cases++
				}
			}
			if *mode == "cluster" || *mode == "all" {
				// Cluster cases only make sense for scenarios with network
				// roles; process-only scenarios are skipped, not failed.
				if spec, err := faults.Scenario(scen, 1); err == nil && spec.NetEnabled() {
					c := caseSpec{
						mode:     "cluster",
						workers:  2 + rng.Intn(2), // 2- and 3-node clusters
						engine:   engines[rng.Intn(len(engines))],
						prog:     programs[rng.Intn(len(programs))],
						scenario: scen,
						seed:     rng.Int63n(1 << 30),
					}
					v, _ := runCluster(c, orc, costs)
					record(v)
					cases++
				}
			}
		}
	}

	// Leak check: every pool campaign closed its pool; give exiting
	// goroutines a moment before declaring a leak.
	leaked := 0
	for i := 0; i < 50; i++ {
		leaked = runtime.NumGoroutine() - baseGoroutines
		if leaked <= 2 {
			leaked = 0
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Printf("\nchaos soak: %d cases, seed %d\n", cases, *seed)
	for _, scen := range scenarios {
		parts := []string{}
		for _, class := range []string{"completed", "aborted", "rejected", "FAILED"} {
			if n := tally[scen][class]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", class, n))
			}
		}
		fmt.Printf("  %-14s %s\n", scen, strings.Join(parts, " "))
	}
	if leaked > 0 {
		fmt.Printf("FAIL: %d goroutines leaked past pool shutdown\n", leaked)
	}
	if len(failures) > 0 || leaked > 0 {
		fmt.Printf("chaos soak FAILED: %d failing cases, %d leaked goroutines\n", len(failures), leaked)
		os.Exit(1)
	}
	fmt.Println("chaos soak clean: every verdict completed, aborted or rejected within contract")
}
