package deque

import "testing"

// TestPushPopZeroAllocs pins the hot-path guarantee: a slot holds the entry
// itself, so the owner's Push/Pop cycle performs no heap allocation at all.
func TestPushPopZeroAllocs(t *testing.T) {
	d := New(64, 20)
	e := item(1)
	allocs := testing.AllocsPerRun(1000, func() {
		d.Push(e)
		d.Pop()
	})
	if allocs != 0 {
		t.Errorf("owner Push+Pop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDeepPushPopZeroAllocs repeats the check at realistic deque depth: a
// spawn burst of 32 frames pushed then popped, as a deep recursion would.
func TestDeepPushPopZeroAllocs(t *testing.T) {
	d := New(64, 20)
	es := make([]*entry, 32)
	for i := range es {
		es[i] = item(i)
	}
	burst := func() {
		for _, e := range es {
			d.Push(e)
		}
		for range es {
			d.Pop()
		}
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("32-deep Push/Pop burst allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkPushPop measures the owner's uncontended Push+Pop cycle — the
// dominant deque operation of every engine's spawn loop.
func BenchmarkPushPop(b *testing.B) {
	d := New(64, 20)
	e := item(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(e)
		d.Pop()
	}
}

// BenchmarkPushPopDepth32 measures a 32-deep spawn burst per iteration.
func BenchmarkPushPopDepth32(b *testing.B) {
	d := New(64, 20)
	e := item(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			d.Push(e)
		}
		for j := 0; j < 32; j++ {
			d.Pop()
		}
	}
}

// BenchmarkPushPopRelaxed is the lock-reduced owner fast path: one atomic
// store per Push, one store plus one load per Pop. Compare against
// BenchmarkPushPop for the tentpole's owner-path saving.
func BenchmarkPushPopRelaxed(b *testing.B) {
	d := NewRelaxed(64, 20)
	e := item(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(e)
		d.Pop()
	}
}

// BenchmarkPushPopDepth32Relaxed is the 32-deep burst on the relaxed owner
// path.
func BenchmarkPushPopDepth32Relaxed(b *testing.B) {
	d := NewRelaxed(64, 20)
	e := item(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			d.Push(e)
		}
		for j := 0; j < 32; j++ {
			d.Pop()
		}
	}
}

// BenchmarkStealN measures the per-entry cost of batch stealing at several
// batch widths against single-entry Steal (batch=1 uses Steal itself). One
// critical section amortises across the batch, which is the mechanism the
// steal-half policy banks on.
func BenchmarkStealN(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8, 16} {
		name := "batch1_steal"
		if batch > 1 {
			name = "batchN"
		}
		b.Run(name+"/"+itoa(batch), func(b *testing.B) {
			d := New(1<<16, 20)
			dst := make([]Entry, batch)
			e := item(1)
			refill := func() {
				for d.Size() < 1<<15 {
					d.Push(e)
				}
			}
			refill()
			b.ResetTimer()
			// b.N counts stolen entries, so ns/op is per entry across
			// batch widths.
			for i := 0; i < b.N; i += batch {
				if d.Size() < batch {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				if batch == 1 {
					d.Steal()
				} else {
					d.StealN(dst)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}
