package wsrt_test

import (
	"testing"

	"adaptivetc/internal/core"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/vtime"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/fib"
)

// BenchmarkPoolRoundTrip measures the submit→complete round-trip of a
// trivial job on a resident pool: the serving fast path, paying one
// wake/barrier cycle and a handful of allocations per job while deques,
// workers, Procs and frame free-lists persist.
func BenchmarkPoolRoundTrip(b *testing.B) {
	p := wsrt.NewPool(wsrt.PoolConfig{Workers: 2, QueueCapacity: 8, Options: sched.Options{GrowableDeque: true}})
	defer p.Close()
	prog := fib.New(5)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := p.Submit(wsrt.JobSpec{Prog: prog, Engine: core.New()})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Result()
		if err != nil || res.Value != 5 {
			b.Fatalf("value=%d err=%v", res.Value, err)
		}
	}
}

// BenchmarkPoolShardedThroughput measures multi-job round-trip throughput
// with 1 vs 2 shards over the same 2 workers: a closed loop keeps as many
// jobs in flight as there are shards, so the sharded configuration's win
// is overlap, not extra hardware. BENCH_shards.json records a run.
func BenchmarkPoolShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(map[int]string{1: "shards=1", 2: "shards=2"}[shards], func(b *testing.B) {
			p := wsrt.NewPool(wsrt.PoolConfig{
				Workers: 2, MaxConcurrentJobs: shards,
				QueueCapacity: 16, Options: sched.Options{GrowableDeque: true},
			})
			defer p.Close()
			prog := fib.New(5)

			b.ReportAllocs()
			b.ResetTimer()
			inflight := make([]*wsrt.JobHandle, 0, shards)
			for i := 0; i < b.N; i++ {
				if len(inflight) == shards {
					res, err := inflight[0].Result()
					if err != nil || res.Value != 5 {
						b.Fatalf("value=%d err=%v", res.Value, err)
					}
					inflight = inflight[:copy(inflight, inflight[1:])]
				}
				h, err := p.Submit(wsrt.JobSpec{Prog: prog, Engine: core.New()})
				if err != nil {
					b.Fatal(err)
				}
				inflight = append(inflight, h)
			}
			for _, h := range inflight {
				if res, err := h.Result(); err != nil || res.Value != 5 {
					b.Fatalf("value=%d err=%v", res.Value, err)
				}
			}
		})
	}
}

// BenchmarkPoolStealPolicies measures closed-loop job throughput on a
// 4-worker resident pool running a steal-heavy Cilk job (a stealable
// task at every spawn) for each steal policy on both deque variants.
// ns/op is per completed job; BENCH_steal.json records a run.
func BenchmarkPoolStealPolicies(b *testing.B) {
	for _, relaxed := range []bool{false, true} {
		variant := "the"
		if relaxed {
			variant = "relaxed"
		}
		for _, policy := range wsrt.StealPolicyNames() {
			b.Run(variant+"/"+policy, func(b *testing.B) {
				p := wsrt.NewPool(wsrt.PoolConfig{
					Workers: 4, QueueCapacity: 8,
					Options: sched.Options{GrowableDeque: true, RelaxedDeque: relaxed, StealPolicy: policy},
				})
				defer p.Close()
				prog := fib.New(16)

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h, err := p.Submit(wsrt.JobSpec{Prog: prog, Engine: wsrt.Cilk})
					if err != nil {
						b.Fatal(err)
					}
					res, err := h.Result()
					if err != nil || res.Value != 987 {
						b.Fatalf("value=%d err=%v", res.Value, err)
					}
				}
			})
		}
	}
}

// BenchmarkBatchRoundTrip is the same trivial job through the batch path —
// per-run deque construction, worker goroutine spawning, cold free-lists —
// the cost the resident pool amortises away.
func BenchmarkBatchRoundTrip(b *testing.B) {
	prog := fib.New(5)
	opt := sched.Options{Workers: 2, GrowableDeque: true, Platform: &vtime.Real{Seed: 1}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.New().Run(prog, opt)
		if err != nil || res.Value != 5 {
			b.Fatalf("value=%d err=%v", res.Value, err)
		}
	}
}
