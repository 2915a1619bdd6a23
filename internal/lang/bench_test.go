package lang

import (
	"runtime"
	"testing"

	"adaptivetc/internal/sched"
)

// BenchmarkInterpNode walks 8-queens serially: the interpreter's cost per
// search-tree node, in time and in heap allocations.
func BenchmarkInterpNode(b *testing.B) {
	p, err := CompileProgram("nqueens", NQueensSrc, nil)
	if err != nil {
		b.Fatal(err)
	}
	var nodes int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.Serial{}.Run(p, sched.Options{})
		if err != nil || res.Value != 92 {
			b.Fatalf("8-queens = %d, %v", res.Value, err)
		}
		nodes += res.Stats.Nodes
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(nodes), "allocs/node")
}

// fibDeep is the largest taskprivate payload among the built-in sources
// (97 cells), a few moves into the tree.
func fibDeep(b *testing.B) (*Program, sched.Workspace) {
	p, err := CompileProgram("fib", FibSrc, nil)
	if err != nil {
		b.Fatal(err)
	}
	ws := p.Root()
	for d := 0; d < 4; d++ {
		p.Apply(ws, d, 0)
	}
	return p, ws
}

func BenchmarkClone(b *testing.B) {
	_, ws := fibDeep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Clone()
	}
}

func BenchmarkCopyFrom(b *testing.B) {
	p, ws := fibDeep(b)
	dst := p.Root().(sched.Reusable)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.CopyFrom(ws)
	}
}
