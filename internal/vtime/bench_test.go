package vtime

import "testing"

// BenchmarkSimYieldHandoff measures the scheduler's worker-to-worker
// handoff: two procs leapfrog each other, so every Yield crosses the
// quantum horizon and transfers control through the driver — two coroutine
// switches, no Go scheduler.
func BenchmarkSimYieldHandoff(b *testing.B) {
	b.ReportAllocs()
	sim := &Sim{Seed: 1, Quantum: 1}
	sim.Run(2, func(p Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(2)
			p.Yield()
		}
	})
}

// BenchmarkSimYieldSolo measures the serial fast path: with one proc the
// horizon is unbounded, so Yield is a single branch and the worker never
// switches.
func BenchmarkSimYieldSolo(b *testing.B) {
	b.ReportAllocs()
	sim := &Sim{Seed: 1, Quantum: 1}
	sim.Run(1, func(p Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(2)
			p.Yield()
		}
	})
}

// BenchmarkSimYieldWide exercises the heap: eight procs with staggered
// advances, so handoffs constantly reorder the pending set. One op is one
// Yield by each of the eight procs; ns/yield is the per-call figure.
func BenchmarkSimYieldWide(b *testing.B) {
	b.ReportAllocs()
	sim := &Sim{Seed: 1, Quantum: 1}
	sim.Run(8, func(p Proc) {
		step := int64(p.ID()%3 + 1)
		for i := 0; i < b.N; i++ {
			p.Advance(step)
			p.Yield()
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8, "ns/yield")
}

// BenchmarkSimRunSetup is the fixed price of a run: eight workers created,
// each started once and retired, nothing in between.
func BenchmarkSimRunSetup(b *testing.B) {
	b.ReportAllocs()
	sim := &Sim{Seed: 1}
	for i := 0; i < b.N; i++ {
		sim.Run(8, func(Proc) {})
	}
}
