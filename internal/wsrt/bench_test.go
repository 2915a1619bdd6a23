package wsrt

import (
	"runtime"
	"strings"
	"testing"

	"adaptivetc/internal/sched"
	"adaptivetc/problems/registry"
)

// TestRunDequeAllocBudget pins what a batch run's deques cost: a ring grown
// on demand, so a small program on eight Sim workers allocates a few first
// rings, not eight deques of the default 8192 slots (512 KiB when every ring
// was allocated at its capacity). The bytes are those allocated with a
// function of package deque on the stack, read from a memory profile that
// samples every allocation.
func TestRunDequeAllocBudget(t *testing.T) {
	const budget = 32 << 10
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := dequeAllocBytes()
	res, err := Run(splitProg{weight: 600}, sched.Options{Workers: 8, Seed: 3}, &Fast{Kind: KindFast}, "cilk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steals == 0 {
		t.Fatal("no steal: the run did not use its thieves' deques")
	}
	got := dequeAllocBytes() - before
	t.Logf("%d bytes allocated in package deque", got)
	if got > budget {
		t.Errorf("the run allocated %d bytes in package deque, budget %d", got, budget)
	}
}

// dequeAllocBytes returns the bytes allocated so far with a function of
// package deque on the stack, as far as the memory profile has sampled them.
func dequeAllocBytes() int64 {
	// A profile record is published two GC cycles after its allocation.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var sum int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "adaptivetc/internal/deque.") {
				sum += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}

// TestFrameReuseZeroAllocs pins the frame free-list guarantee: once a frame
// has been recycled, the NewFrame/FreeFrame cycle of an inline-completing
// task allocates nothing.
func TestFrameReuseZeroAllocs(t *testing.T) {
	w := &Worker{}
	w.FreeFrame(w.NewFrame(nil, nil, 0, 0, KindFast)) // seed the free-list
	allocs := testing.AllocsPerRun(1000, func() {
		f := w.NewFrame(nil, nil, 3, 3, KindFast)
		w.FreeFrame(f)
	})
	if allocs != 0 {
		t.Errorf("recycled NewFrame+FreeFrame allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFreeFrameBounded checks the free-list respects workerPoolCap rather
// than growing with the number of frames a run finalises.
func TestFreeFrameBounded(t *testing.T) {
	w := &Worker{}
	for i := 0; i < 10*workerPoolCap; i++ {
		w.FreeFrame(&Frame{})
	}
	if len(w.frames) != workerPoolCap {
		t.Errorf("free-list holds %d frames, want the cap of %d", len(w.frames), workerPoolCap)
	}
}

// TestFrameResetClearsState checks a recycled frame carries nothing over
// from its previous life — stale pending counts or suspension flags would
// corrupt the deposit protocol.
func TestFrameResetClearsState(t *testing.T) {
	w := &Worker{}
	f := w.NewFrame(nil, nil, 1, 1, KindFast)
	f.PC, f.Sum = 7, 99
	f.OnStolen() // pending=1
	if _, out := f.Sync(0); out != SyncSuspended {
		t.Fatal("frame with a pending deposit should suspend")
	}
	if _, finalise := f.deposit(5); !finalise {
		t.Fatal("last deposit should finalise")
	}
	w.FreeFrame(f)
	g := w.NewFrame(nil, nil, 2, 2, KindFast2)
	if g != f {
		t.Fatal("free-list did not hand the frame back")
	}
	if g.PC != 0 || g.Sum != 0 || g.Depth != 2 || g.Kind != KindFast2 {
		t.Errorf("recycled frame kept stale state: %+v", g)
	}
	if total, out := g.Sync(11); out != SyncComplete || total != 11 {
		t.Errorf("recycled frame Sync = (%d,%v), want (11,complete) — stale pending/suspended state", total, out)
	}
}

// BenchmarkFrameRecycle measures the NewFrame/FreeFrame cycle every
// inline-completed task performs.
func BenchmarkFrameRecycle(b *testing.B) {
	w := &Worker{}
	w.FreeFrame(w.NewFrame(nil, nil, 0, 0, KindFast))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := w.NewFrame(nil, nil, 3, 3, KindFast)
		w.FreeFrame(f)
	}
}

// BenchmarkFrameFresh is the pre-free-list behaviour for comparison: every
// task pays a heap allocation.
func BenchmarkFrameFresh(b *testing.B) {
	b.ReportAllocs()
	var sink *Frame
	for i := 0; i < b.N; i++ {
		sink = &Frame{Depth: 3, Rel: 3, Kind: KindFast}
	}
	_ = sink
}

// BenchmarkSimIdleSteal is the Sim's idle path at paper-sim's shape:
// cutoff-programmer on tree3(20000) at P = 8, seed 1, Cutoff 3, where idle
// thieves fail ~128 k steals per run. ns/fail is a run's wall time over its
// failed steals, so it falls with the cost of one idle retry.
func BenchmarkSimIdleSteal(b *testing.B) {
	prog, err := registry.Build("tree3", registry.Params{Size: 20000})
	if err != nil {
		b.Fatal(err)
	}
	var fails int64
	for i := 0; i < b.N; i++ {
		res, err := CutoffProgrammer.Run(prog, sched.Options{Workers: 8, Seed: 1, Cutoff: 3})
		if err != nil {
			b.Fatal(err)
		}
		fails += res.Stats.StealFails
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fails), "ns/fail")
}
