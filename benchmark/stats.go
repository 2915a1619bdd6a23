package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank percentile of an ascending sample:
// the smallest value with at least p of the sample at or below it. The
// truncating int(p*(n-1)) form reads ~p96 as p99 on 50 samples (the PR 7
// loadgen bug); this form never reads low.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy returns v ascending, leaving v alone.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the mean of the two middle values for an even count, so a
// three-sample set-up median and a ten-run median read as expected.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durs converts durations to float64s in the given unit.
func durs(d []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// p50of is the nearest-rank median of a duration sample in unit.
func p50of(d []time.Duration, unit time.Duration) float64 {
	return percentile(sortedCopy(durs(d, unit)), 0.50)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memMark is a point-in-time reading of the allocator and collector.
type memMark struct {
	totalAlloc uint64
	mallocs    uint64
	heapSys    uint64
	gcCPU      float64 // seconds
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	m := memMark{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, heapSys: ms.HeapSys}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = sample[0].Value.Float64()
	}
	return m
}

// timeLoop calls fn in growing batches until at least d has passed and
// returns the mean nanoseconds per call.
func timeLoop(d time.Duration, fn func()) float64 {
	fn() // warm caches and free-lists outside the timing
	var n int
	var spent time.Duration
	for batch := 1; spent < d; batch *= 2 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		spent += time.Since(t0)
		n += batch
	}
	return float64(spent.Nanoseconds()) / float64(n)
}

// The reference kernel is a fixed piece of CPU and memory work (fill,
// sort and sample 4096 integers, about a quarter of a millisecond) that
// every client times between its ops. The host this benchmark was written
// on, a shared 2-CPU VM, runs the same code 15–40 % slower for half a minute
// at a time; the kernel's median time over a window, over refNominal, is the
// factor by which the host was slow in that window, and the end-to-end
// times are divided by it (see atReferenceSpeed). Nothing in the repository
// can change the kernel: it uses the standard library alone.

// refNominal is the kernel's time on that host when it is undisturbed. Its
// value only fixes the scale of the reported numbers: a comparison is
// always between two runs on one host.
const refNominal = 250 * time.Microsecond

// refEvery bounds how often a client runs the kernel: at most 2 % of its time.
const refEvery = 15 * time.Millisecond

func refKernel() int {
	v := make([]int, 4096)
	x := uint64(88172645463325252)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = int(x >> 40)
	}
	sort.Ints(v)
	sum := 0
	for i := 0; i < len(v); i += 64 {
		sum += v[i]
	}
	return sum
}

// refSample times one run of the reference kernel.
func refSample() time.Duration {
	t0 := time.Now()
	runtime.KeepAlive(refKernel()) // so that the compiler keeps the work
	return time.Since(t0)
}

// refSamples times the kernel n times in a row.
func refSamples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = refSample()
	}
	return out
}

// hostSlowness is the median of samples over refNominal: 1.2 means the
// host ran the reference kernel 20 % slower than nominal.
func hostSlowness(samples []time.Duration) float64 {
	return median(durs(samples, time.Nanosecond)) / float64(refNominal)
}

// atReferenceSpeed is a duration as it would have read on a host running at
// nominal speed: the idle part (a deliberate sleep, which no CPU makes
// shorter) is kept and the rest is divided by the host's slowness.
func atReferenceSpeed(took, idle time.Duration, slowness float64) time.Duration {
	idle = min(idle, took)
	return idle + time.Duration(float64(took-idle)/slowness)
}
