package adaptivetc_test

import (
	"context"
	"errors"
	"testing"

	"adaptivetc"
	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/trace"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/bnb"
	"adaptivetc/problems/dagflow"
	"adaptivetc/problems/fib"
	"adaptivetc/problems/firstsol"
	"adaptivetc/problems/nqueens"
)

// FuzzPoolConcurrent feeds a fuzzer-chosen schedule of operations —
// submit, cancel, occupancy scrape, submit-with-injected-faults — to a
// sharded pool, then closes it and audits the wreckage: every completed
// job must report the right answer with a trace satisfying all scheduler
// invariants, every cancelled, drained or fault-killed job must surface a
// known abort class and leave a consistent truncated trace, the pool's
// quarantine counter must agree with the observed panic deaths, and no
// two jobs may ever hold the same worker at the same time. A high second
// byte additionally arms pool-level admission/shard-allocator faults; a
// high first byte switches the pool to the lock-reduced deque variant
// (audited with the k=2 multiplicity-tolerant checker), and each job's
// steal policy is drawn from its op byte. Submitted programs are drawn
// from five families — classic search (fib, n-queens), the shared-state
// families (dataflow DAG, branch-and-bound knapsack) and first-solution
// SAT, whose jobs race the fuzzer's cancellations and are judged by a
// witness predicate under truncation laws rather than a fixed value. The
// seed corpus doubles as a regression suite in plain `go test` runs.
func FuzzPoolConcurrent(f *testing.F) {
	f.Add([]byte{2, 1, 0, 5, 10})
	f.Add([]byte{0, 2, 0, 0, 3, 2, 0, 7, 1, 0})
	f.Add([]byte{1, 1, 0, 2, 0, 4, 4, 3, 0, 2, 0, 9})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 3, 3, 2, 2, 0, 0, 13, 8})
	f.Add([]byte{2, 2, 4, 0, 4, 0, 4, 0, 4, 0})       // panic-quarantine then heal
	f.Add([]byte{2, 2, 5, 1, 5, 1, 5, 1, 5, 1})       // forced-overflow aborts
	f.Add([]byte{3, 0x82, 0, 4, 5, 2, 3, 0, 4, 5, 2}) // pool-level faults armed
	// Relaxed-deque probes (high first byte): one seed cycles all four
	// steal policies (op/6 picks the policy), and the steal-half probes mix
	// panic quarantine (op 10) and overflow+steal-fail noise (op 11) with
	// batch steals in flight — the case where an abandoned intake buffer or
	// an unpaid batch debt would surface as a truncated-trace violation.
	f.Add([]byte{0x82, 2, 0, 6, 12, 18, 0, 6, 12, 18, 2, 3})
	f.Add([]byte{0x81, 2, 7, 10, 7, 10, 7, 10, 2})    // steal-half under panic quarantine
	f.Add([]byte{0x83, 1, 7, 11, 7, 11, 7, 11, 2, 9}) // steal-half under overflow + steal noise
	// Shared-state families: concurrent DAG + BnB jobs on one pool (the
	// per-position index walks all five families), first-solution jobs
	// racing cancellation (op%6==2 right after a first-sat submit), and a
	// first-solution job under a certain-panic plan.
	f.Add([]byte{2, 2, 0, 1, 6, 7, 12, 13, 18, 19, 24})
	f.Add([]byte{3, 1, 24, 2, 24, 2, 24, 2, 24, 2})
	f.Add([]byte{0x82, 2, 4, 24, 10, 24, 2, 5, 24, 11})

	fibProg, queensProg := fib.New(10), nqueens.NewArray(5)
	const fibWant, queensWant = 55, 10
	// The shared-state families: a wavefront DAG and a knapsack whose values
	// are schedule-independent by construction (dagflow/bnb package docs),
	// plus a planted-satisfiable first-solution SAT instance. One instance
	// each, deliberately shared by every concurrent job that draws it — the
	// per-run state allocated in Root() is what makes that legal.
	dagProg := dagflow.NewStencil(3, 4)
	knapProg := bnb.NewKnapsack(9, 0, 20100424)
	satProg := firstsol.NewSAT(8, 0, 20100424)
	dagWant := dagProg.WantValue()
	knapRes, err := adaptivetc.NewSerial().Run(knapProg, adaptivetc.Options{})
	if err != nil {
		f.Fatalf("knapsack oracle: %v", err)
	}
	knapWant := knapRes.Value

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			t.Skip()
		}
		workers := 2 + int(ops[0]%3) // 2..4 resident workers
		maxJobs := 1 + int(ops[1]%3) // 1..3 shards
		// A high first byte switches every deque in the pool to the
		// lock-reduced variant; verdicts below then run the invariant
		// checker in multiplicity-tolerant mode (k=2).
		relaxed := ops[0] >= 128
		// A high second byte arms mild pool-level faults: transient
		// admission saturation and shard-allocator starvation. Both are
		// liveness hazards, not correctness ones — submits may see
		// ErrQueueFull, placement may be delayed, nothing else changes.
		var poolPlan *faults.Plan
		if ops[1] >= 128 {
			poolPlan = faults.New(faults.Spec{
				Seed:   int64(ops[0]) + 1,
				Reject: 0.05,
				Starve: 0.2, StarveBurst: 2,
			})
		}
		pool := wsrt.NewPool(wsrt.PoolConfig{
			Workers: workers, MaxConcurrentJobs: maxJobs, QueueCapacity: 8,
			Options: sched.Options{GrowableDeque: true, RelaxedDeque: relaxed},
			Faults:  poolPlan,
		})
		closed := false
		defer func() {
			if !closed {
				pool.Close()
			}
		}()

		type jobRec struct {
			h        *wsrt.JobHandle
			rec      *trace.Recorder
			want     int64
			verify   func(int64) bool // first-solution witness predicate
			first    bool             // submitted with JobSpec.FirstSolution
			cancel   context.CancelFunc
			panicked bool // submitted with a certain-panic fault plan
		}
		var jobs []*jobRec
		engines := []func() adaptivetc.Engine{
			adaptivetc.NewAdaptiveTC, adaptivetc.NewCilk,
			adaptivetc.NewHelpFirst, adaptivetc.NewSLAW,
		}

		for i, op := range ops[2:] {
			switch op % 6 {
			case 0, 1, 4, 5: // submit; 4 and 5 carry a fault plan
				if len(jobs) >= 24 {
					continue
				}
				// The family is drawn per position: two classic search
				// programs, the two shared-state families, and a
				// first-solution job — which has no fixed want value, only
				// a witness predicate, and is audited under truncation
				// laws (its losing workers are cancelled by design).
				prog, want := sched.Program(fibProg), int64(fibWant)
				var verify func(int64) bool
				first := false
				switch (int(op) + i) % 5 {
				case 1:
					prog, want = queensProg, queensWant
				case 2:
					prog, want = dagProg, dagWant
				case 3:
					prog, want = knapProg, knapWant
				case 4:
					prog, first = satProg, true
					verify = satProg.Verify
				}
				eng := engines[(int(op)/6+i)%len(engines)]().(wsrt.PoolEngine)
				// Fault schedules are drawn from the fuzz input too: a
				// deterministic per-position seed, a certain worker panic
				// (op%6==4) or a forced deque overflow plus steal noise
				// (op%6==5).
				var plan *faults.Plan
				panicked := false
				switch op % 6 {
				case 4:
					plan = faults.New(faults.Spec{Seed: int64(i)*131 + int64(op) + 1, Panic: 1})
					panicked = true
				case 5:
					plan = faults.New(faults.Spec{
						Seed:     int64(i)*131 + int64(op) + 1,
						Overflow: 0.2, StealFail: 0.3, StealFailBurst: 4,
					})
				}
				// The steal policy is fuzzer-chosen too: op/6 indexes the
				// registry, so every policy can meet every fault class.
				policy := wsrt.StealPolicyNames()[(int(op)/6)%len(wsrt.StealPolicyNames())]
				rec := trace.NewRecorder()
				ctx, cancel := context.WithCancel(context.Background())
				h, err := pool.Submit(wsrt.JobSpec{Prog: prog, Engine: eng, Ctx: ctx, Tracer: rec, Faults: plan, StealPolicy: policy, FirstSolution: first})
				if err != nil {
					rec.Release()
					cancel()
					if !errors.Is(err, wsrt.ErrQueueFull) {
						t.Fatalf("op %d: submit failed with %v, want nil or ErrQueueFull", i, err)
					}
					continue
				}
				jobs = append(jobs, &jobRec{h: h, rec: rec, want: want, verify: verify, first: first, cancel: cancel, panicked: panicked})
			case 2: // cancel an earlier job (idempotent if already done)
				if len(jobs) > 0 {
					jobs[int(op)%len(jobs)].cancel()
				}
			case 3: // scrape the occupancy view mid-flight: no worker in two shards
				seen := map[int]bool{}
				for _, shard := range pool.LiveShards() {
					for _, w := range shard {
						if seen[w] {
							t.Fatalf("op %d: worker %d in two live shards %v", i, w, pool.LiveShards())
						}
						seen[w] = true
					}
				}
			}
		}

		pool.Close()
		closed = true
		if _, err := pool.Submit(wsrt.JobSpec{Prog: fibProg, Engine: adaptivetc.NewAdaptiveTC().(wsrt.PoolEngine)}); !errors.Is(err, wsrt.ErrPoolClosed) {
			t.Fatalf("submit after close: err = %v, want ErrPoolClosed", err)
		}

		multiplicity := 1
		if relaxed {
			multiplicity = 2
		}
		var sawPanicked int64
		for i, j := range jobs {
			res, err := j.h.Result()
			if err == nil {
				if j.panicked {
					t.Errorf("job %d: certain-panic fault plan but the job completed", i)
				}
				if j.first {
					// A completed first-solution job on a satisfiable
					// instance must carry a valid witness (a clean run
					// can only end by claiming one), and its trace is
					// audited under truncation laws: the winner's claim
					// cancels siblings mid-tree by design.
					if !j.verify(res.Value) {
						t.Errorf("job %d: invalid first-solution witness %d", i, res.Value)
					}
					if cerr := j.rec.CheckLaws(trace.Laws{Truncated: true, K: multiplicity}); cerr != nil {
						t.Errorf("job %d first-solution invariants: %v", i, cerr)
					}
				} else {
					if res.Value != j.want {
						t.Errorf("job %d: value %d, want %d", i, res.Value, j.want)
					}
					if cerr := j.rec.CheckLaws(trace.Laws{Final: res.Value, Want: j.want, K: multiplicity}); cerr != nil {
						t.Errorf("job %d invariants: %v", i, cerr)
					}
				}
			} else {
				if !chaosAbortOK(err) {
					t.Errorf("job %d: unknown abort class: %v", i, err)
				}
				if errors.Is(err, wsrt.ErrJobPanicked) {
					sawPanicked++
				}
				if cerr := j.rec.CheckLaws(trace.Laws{Truncated: true, K: multiplicity}); cerr != nil {
					t.Errorf("job %d (failed with %v) truncated-trace invariants: %v", i, err, cerr)
				}
			}
			j.rec.Release()
			j.cancel()
		}
		if got := pool.Quarantined(); got != sawPanicked {
			t.Errorf("pool.Quarantined() = %d, but %d jobs died of ErrJobPanicked", got, sawPanicked)
		}

		// Shard-exclusivity: two jobs that ran on intersecting worker sets
		// must have held them at disjoint times. Each job's recorded
		// interval is inside its exclusive shard-hold window, so any
		// overlap here means the allocator double-booked a worker.
		for i := 0; i < len(jobs); i++ {
			for k := i + 1; k < len(jobs); k++ {
				a, b := jobs[i].h, jobs[k].h
				if len(a.Shard()) == 0 || len(b.Shard()) == 0 || !shardsIntersect(a.Shard(), b.Shard()) {
					continue
				}
				aStart, aEnd := a.Interval()
				bStart, bEnd := b.Interval()
				if aStart.Before(bEnd) && bStart.Before(aEnd) {
					t.Errorf("jobs %d and %d shared workers (shards %v ∩ %v) with overlapping run windows [%v,%v] and [%v,%v]",
						i, k, a.Shard(), b.Shard(), aStart, aEnd, bStart, bEnd)
				}
			}
		}
	})
}

func shardsIntersect(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
