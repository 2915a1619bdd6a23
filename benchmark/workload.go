package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// An op is one program instance solved to a verified answer. A workload is
// a closed loop: each client starts its next op only when the previous one
// has returned, because every caller of this system waits for its answer.

// workload names a set-up function; setup builds everything an op needs
// (programs, serial oracles, servers, journals) from the seed.
type workload struct {
	name  string
	setup func(seed int64) (*instance, error)
}

// instance is one set-up workload, ready to run ops.
type instance struct {
	// clients is the number of closed-loop callers.
	clients int
	// op runs op number k (a position in the seeded schedule, shared by all
	// clients) and returns an error unless the answer was verified. idle is
	// the part of the op the caller slept through on purpose.
	op func(client int, k int64, tr *opTrace) (idle time.Duration, err error)
	// close stops every server and goroutine set-up started and removes
	// its files.
	close func()
}

// workers is the scheduler width every workload uses: all CPUs, at most 4.
func workers() int { return min(runtime.NumCPU(), 4) }

// loadClients is the number of load-generating goroutines and HTTP
// connections: never more than the CPUs, so the generator does not queue
// behind itself.
func loadClients() int { return runtime.NumCPU() }

// workloads are the five of BENCHMARK.json, which says why each is there.
var workloads = []workload{
	{"search-adaptive", setupSearchAdaptive},
	{"search-eager", setupSearchEager},
	{"serve-http", setupServeHTTP},
	{"serve-durable", setupServeDurable},
	{"paper-sim", setupPaperSim},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// schedule maps an op number to an index into a fixed list of n op kinds.
// Every cycle of n ops visits each kind once, in an order drawn from the
// seed, so two seeds differ in order but never in the mix a window measures.
type schedule struct {
	n     int
	order []int // scheduleCycles permutations of 0..n-1, back to back
}

// scheduleCycles permutations are drawn; longer runs wrap around.
const scheduleCycles = 64

func newSchedule(seed int64, n int) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{n: n, order: make([]int, 0, n*scheduleCycles)}
	for c := 0; c < scheduleCycles; c++ {
		s.order = append(s.order, rng.Perm(n)...)
	}
	return s
}

func (s *schedule) at(k int64) int { return s.order[k%int64(len(s.order))] }

// opTime is one verified op: how long it took and how much of that the
// caller spent asleep on purpose (the HTTP client's poll gaps).
type opTime struct {
	took time.Duration
	idle time.Duration
}

// window is what one measured interval of a workload produced.
type window struct {
	elapsed   time.Duration
	cpu       time.Duration
	ops       []opTime        // the verified ops
	ref       []time.Duration // reference-kernel samples taken between ops
	attempted int
	failed    int
	firstErr  error
	mem0      memMark
	mem1      memMark
}

func (w window) opsPerSecond() float64 { return float64(len(w.ops)) / w.elapsed.Seconds() }

// runWindow drives inst's clients for d. seq is the schedule position; it
// carries on from warm-up to the timed window so no op is replayed. A
// client starts no op after the deadline; the window ends when the last
// client's op in flight has returned. Between ops, at most once per
// refEvery, each client times the reference kernel.
func runWindow(inst *instance, d time.Duration, rec *recorder, seq *atomic.Int64) window {
	type tally struct {
		ops       []opTime
		ref       []time.Duration
		attempted int
		failed    int
		firstErr  error
	}
	tallies := make([]tally, inst.clients)
	var wg sync.WaitGroup
	w := window{mem0: readMem()}
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			var sampled time.Time
			for time.Since(start) < d {
				k := seq.Add(1) - 1
				t0 := time.Now()
				tr := rec.beginOp(c, k)
				idle, err := inst.op(c, k, tr)
				tr.end()
				took := time.Since(t0)
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("op %d: %w", k, err)
					}
					continue
				}
				t.ops = append(t.ops, opTime{took: took, idle: idle})
				if time.Since(sampled) >= refEvery {
					t.ref = append(t.ref, refSample())
					sampled = time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	w.elapsed, w.cpu, w.mem1 = time.Since(start), cpuTime()-cpu0, readMem()
	for _, t := range tallies {
		w.ops = append(w.ops, t.ops...)
		w.ref = append(w.ref, t.ref...)
		w.attempted += t.attempted
		w.failed += t.failed
		if w.firstErr == nil {
			w.firstErr = t.firstErr
		}
	}
	return w
}
