package deque

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// entry is a plain stealable item.
type entry struct {
	id      int
	special bool
	stolen  atomic.Int64
}

func (e *entry) Special() bool { return e.special }
func (e *entry) OnStolen()     { e.stolen.Add(1) }

func item(id int) *entry        { return &entry{id: id} }
func specialItem(id int) *entry { return &entry{id: id, special: true} }

func TestPushPopLIFO(t *testing.T) {
	d := New(16, 20)
	for i := 0; i < 10; i++ {
		if !d.Push(item(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if got := d.Size(); got != 10 {
		t.Fatalf("size = %d, want 10", got)
	}
	for i := 9; i >= 0; i-- {
		e, ok := d.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if e.(*entry).id != i {
			t.Fatalf("pop returned %d, want %d", e.(*entry).id, i)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
}

func TestStealFIFO(t *testing.T) {
	d := New(16, 20)
	for i := 0; i < 5; i++ {
		d.Push(item(i))
	}
	for i := 0; i < 5; i++ {
		e, ok := d.Steal()
		if !ok {
			t.Fatalf("steal %d failed", i)
		}
		if e.(*entry).id != i {
			t.Fatalf("steal returned %d, want %d (head order)", e.(*entry).id, i)
		}
		if e.(*entry).stolen.Load() != 1 {
			t.Fatalf("OnStolen not called exactly once for %d", i)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
}

func TestOverflow(t *testing.T) {
	d := New(6, 20) // effective capacity 4: two slots reserved for claims
	for i := 0; i < 4; i++ {
		if !d.Push(item(i)) {
			t.Fatalf("push %d failed before capacity", i)
		}
	}
	if d.Push(item(4)) {
		t.Fatal("push beyond capacity succeeded")
	}
	// Draining one slot re-enables pushing.
	if _, ok := d.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if !d.Push(item(5)) {
		t.Fatal("push after pop failed")
	}
}

// TestOverflowThroughGrowth: a deque whose capacity exceeds its first ring
// reaches the capacity by doubling, and still reports overflow at exactly
// capacity-2 live entries — from an empty deque and from one whose window
// starts off the origin, so the re-homed entries wrap the ring.
func TestOverflowThroughGrowth(t *testing.T) {
	for _, capacity := range []int{6, 100, 8192} {
		for _, offset := range []int{0, 5} {
			d := New(capacity, 20)
			for i := 0; i < offset; i++ {
				d.Push(item(-1))
				if _, ok := d.Steal(); !ok {
					t.Fatalf("cap %d: steal %d failed", capacity, i)
				}
			}
			pushed := 0
			for d.Push(item(pushed)) {
				pushed++
			}
			if pushed != capacity-2 {
				t.Errorf("cap %d offset %d: overflow after %d pushes, want %d", capacity, offset, pushed, capacity-2)
			}
			if ring := len(d.buf); d.Cap() != capacity || ring < capacity || ring >= 2*capacity {
				t.Errorf("cap %d offset %d: Cap() %d, ring %d: the ring must just cover the capacity", capacity, offset, d.Cap(), ring)
			}
			for want := pushed - 1; want >= 0; want-- {
				if e, ok := d.Pop(); !ok || e.(*entry).id != want {
					t.Fatalf("cap %d offset %d: pop = %v/%v, want %d", capacity, offset, e, ok, want)
				}
			}
		}
	}
}

// TestRingStartsSmall: a deque allocates at most 64 slots up front, not its
// capacity, and a Growable ignores an initial size above that; a ring is
// always a power of two, so a small capacity is rounded up.
func TestRingStartsSmall(t *testing.T) {
	for _, c := range []struct {
		name string
		d    *Deque
		ring int
	}{
		{"fixed 8192", New(8192, 20), 64},
		{"fixed 6", New(6, 20), 8},
		{"fixed 100", New(100, 20), 64},
		{"growable 8192", NewGrowable(8192, 20), 64},
		{"growable 2", NewGrowable(2, 20), 8},
		{"relaxed 8192", NewRelaxed(8192, 20).Deque, 64},
	} {
		if len(c.d.buf) != c.ring || c.d.mask != int64(c.ring-1) {
			t.Errorf("%s: ring %d (mask %d), want %d", c.name, len(c.d.buf), c.d.mask, c.ring)
		}
	}
}

func TestNeedTaskSignalling(t *testing.T) {
	d := New(8, 3) // max_stolen_num = 3
	for i := 0; i < 3; i++ {
		if _, ok := d.Steal(); ok {
			t.Fatal("steal from empty deque succeeded")
		}
	}
	if d.NeedTask() {
		t.Fatal("need_task raised at stolen_num == max_stolen_num")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
	if !d.NeedTask() {
		t.Fatal("need_task not raised past max_stolen_num")
	}
	// A successful steal clears both counters.
	d.Push(item(1))
	if _, ok := d.Steal(); !ok {
		t.Fatal("steal failed")
	}
	if d.NeedTask() || d.StolenNum() != 0 {
		t.Fatalf("steal success did not clear signalling: need=%v num=%d", d.NeedTask(), d.StolenNum())
	}
}

func TestSpecialNeverStolen(t *testing.T) {
	d := New(8, 20)
	s := specialItem(0)
	d.Push(s)
	// Alone in the deque: steal_specialtask must fail (no child).
	if _, ok := d.Steal(); ok {
		t.Fatal("stole a lone special task")
	}
	// With a child above it, the child is taken instead.
	c := item(1)
	d.Push(c)
	e, ok := d.Steal()
	if !ok {
		t.Fatal("steal_specialtask failed with a child present")
	}
	if e.(*entry) != c {
		t.Fatalf("steal_specialtask returned %d, want the child", e.(*entry).id)
	}
	if s.stolen.Load() != 0 {
		t.Fatal("special task's OnStolen fired")
	}
	// The owner discovers the theft via PopSpecial.
	if stolen := d.PopSpecial(); !stolen {
		t.Fatal("PopSpecial did not report the stolen child")
	}
}

func TestPopSpecialClean(t *testing.T) {
	d := New(8, 20)
	s := specialItem(0)
	d.Push(s)
	d.Push(item(1))
	if _, ok := d.Pop(); !ok {
		t.Fatal("pop of child failed")
	}
	if stolen := d.PopSpecial(); stolen {
		t.Fatal("PopSpecial reported theft with none")
	}
	if d.Size() != 0 {
		t.Fatalf("size = %d after PopSpecial, want 0", d.Size())
	}
	// The cycle repeats: push special + child again.
	d.Push(s)
	d.Push(item(2))
	if e, ok := d.Pop(); !ok || e.(*entry).id != 2 {
		t.Fatal("second cycle pop failed")
	}
	if d.PopSpecial() {
		t.Fatal("second cycle PopSpecial reported theft")
	}
}

// TestPopSpecialReturn pins the documented single-return contract of
// PopSpecial: false when the marker sat undisturbed at the tail, true when
// a thief's steal_specialtask carried H past it; the marker entry is
// removed either way (there is no separate "found" result).
func TestPopSpecialReturn(t *testing.T) {
	cases := []struct {
		name       string
		setup      func(t *testing.T, d *Deque)
		wantStolen bool
	}{
		{
			name:       "lone marker, untouched",
			setup:      func(t *testing.T, d *Deque) { d.Push(specialItem(0)) },
			wantStolen: false,
		},
		{
			name: "child popped by owner",
			setup: func(t *testing.T, d *Deque) {
				d.Push(specialItem(0))
				d.Push(item(1))
				if _, ok := d.Pop(); !ok {
					t.Fatal("pop of child failed")
				}
			},
			wantStolen: false,
		},
		{
			name: "child taken by steal_specialtask",
			setup: func(t *testing.T, d *Deque) {
				d.Push(specialItem(0))
				d.Push(item(1))
				if _, ok := d.Steal(); !ok {
					t.Fatal("steal_specialtask failed")
				}
			},
			wantStolen: true,
		},
		{
			name: "one of two children stolen, other popped",
			setup: func(t *testing.T, d *Deque) {
				d.Push(specialItem(0))
				d.Push(item(1))
				d.Push(item(2))
				if e, ok := d.Steal(); !ok || e.(*entry).id != 1 {
					t.Fatal("steal_specialtask did not take the first child")
				}
				if e, ok := d.Pop(); !ok || e.(*entry).id != 2 {
					t.Fatal("pop did not return the second child")
				}
			},
			wantStolen: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := New(16, 20)
			c.setup(t, d)
			if stolen := d.PopSpecial(); stolen != c.wantStolen {
				t.Fatalf("PopSpecial() = %v, want %v", stolen, c.wantStolen)
			}
			// The marker is gone regardless of the result, and the deque is
			// immediately reusable for the next special-task cycle.
			if d.Size() != 0 {
				t.Fatalf("size = %d after PopSpecial, want 0", d.Size())
			}
			if _, ok := d.Pop(); ok {
				t.Fatal("pop after PopSpecial returned an entry from an empty deque")
			}
			d.Push(specialItem(3))
			d.Push(item(4))
			if e, ok := d.Pop(); !ok || e.(*entry).id != 4 {
				t.Fatal("deque not reusable after PopSpecial")
			}
			if d.PopSpecial() {
				t.Fatal("fresh cycle reported a stale theft")
			}
		})
	}
}

// TestMaxDepthMidPushSteal reproduces the maxDepth over-count: Push loads H
// before publishing the entry, and thieves advancing H inside that window
// used to make the owner record a depth it never co-held. The hook steals
// six entries between the loads and the store of the ninth push; the fresh
// depth at publication is 3, so the high-water mark must stay at 8.
func TestMaxDepthMidPushSteal(t *testing.T) {
	d := New(32, 20)
	for i := 0; i < 8; i++ {
		if !d.Push(item(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if got := d.MaxDepth(); got != 8 {
		t.Fatalf("maxDepth = %d after 8 pushes, want 8", got)
	}
	fired := false
	testMidPush = func(dd *Deque) {
		fired = true
		testMidPush = nil // only the next push interleaves
		for i := 0; i < 6; i++ {
			if _, ok := dd.Steal(); !ok {
				t.Errorf("mid-push steal %d failed", i)
			}
		}
	}
	defer func() { testMidPush = nil }()
	if !d.Push(item(8)) {
		t.Fatal("ninth push failed")
	}
	if !fired {
		t.Fatal("mid-push hook never ran")
	}
	// Stale arithmetic would record t+1-h = 9; the true depth at the moment
	// of publication was 9-6 = 3.
	if got := d.MaxDepth(); got != 8 {
		t.Fatalf("maxDepth = %d after mid-push steals, want 8 (stale-H over-count)", got)
	}
	if got := d.Size(); got != 3 {
		t.Fatalf("size = %d, want 3", got)
	}
}

// TestConcurrentStealPop hammers one owner against many thieves and checks
// that every pushed entry is consumed exactly once — the THE-protocol
// linearizability property. Run with -race.
func TestConcurrentStealPop(t *testing.T) {
	const (
		items   = 20000
		thieves = 4
	)
	d := New(64, 20)
	var consumed sync.Map
	var popped, stolenCount atomic.Int64
	record := func(e Entry, by string) {
		if _, dup := consumed.LoadOrStore(e.(*entry).id, by); dup {
			t.Errorf("entry %d consumed twice", e.(*entry).id)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					// Drain whatever remains after the owner finished.
					for {
						e, ok := d.Steal()
						if !ok {
							return
						}
						record(e, "thief")
						stolenCount.Add(1)
					}
				default:
				}
				if e, ok := d.Steal(); ok {
					record(e, "thief")
					stolenCount.Add(1)
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	next := 0
	live := 0
	for next < items {
		if live < 48 && (live == 0 || rng.Intn(2) == 0) {
			if d.Push(item(next)) {
				next++
				live++
			}
			continue
		}
		if e, ok := d.Pop(); ok {
			record(e, "owner")
			popped.Add(1)
		}
		// Whether the pop succeeded or not, entries may also vanish to
		// thieves; recompute the live estimate from the deque itself.
		live = d.Size()
	}
	for {
		e, ok := d.Pop()
		if !ok {
			break
		}
		record(e, "owner")
		popped.Add(1)
	}
	close(done)
	wg.Wait()
	total := popped.Load() + stolenCount.Load()
	count := 0
	consumed.Range(func(_, _ any) bool { count++; return true })
	if count != items {
		t.Fatalf("consumed %d distinct entries, want %d (popped=%d stolen=%d)",
			count, items, popped.Load(), stolenCount.Load())
	}
	if total != items {
		t.Fatalf("consumed %d total, want %d", total, items)
	}
}

// TestQuickOwnerSequence drives random single-threaded op sequences and
// checks the deque against a simple slice model.
func TestQuickOwnerSequence(t *testing.T) {
	f := func(ops []byte) bool {
		d := New(32, 20)
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				ok := d.Push(item(next))
				wantOK := len(model) < 30 // capacity 32 minus claim slack
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, next)
					next++
				}
			case 1: // pop
				e, ok := d.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if e.(*entry).id != want {
						return false
					}
				}
			case 2: // steal
				e, ok := d.Steal()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[0]
					model = model[1:]
					if e.(*entry).id != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A forced steal failure must be indistinguishable from losing a real
// race: no entry leaves, stolen_num/need_task advance, the trace records
// a steal-fail, and clearing the hook restores normal stealing.
func TestSetFailStealForcesFailure(t *testing.T) {
	d := New(16, 3)
	var forced int
	remaining := 4
	d.SetFailSteal(func() bool {
		if remaining > 0 {
			remaining--
			forced++
			return true
		}
		return false
	})
	var ops []TraceOp
	d.SetTrace(func(op TraceOp, stolenNum int64, needTask bool) {
		ops = append(ops, op)
	})
	for i := 0; i < 6; i++ {
		d.Push(item(i))
	}
	for i := 0; i < 4; i++ {
		if _, ok := d.Steal(); ok {
			t.Fatalf("forced attempt %d stole an entry", i)
		}
	}
	if forced != 4 {
		t.Fatalf("hook consulted %d times, want 4", forced)
	}
	if d.Size() != 6 {
		t.Fatalf("entries leaked through forced failures: size %d", d.Size())
	}
	if d.StolenNum() != 4 || !d.NeedTask() {
		t.Fatalf("starvation signal wrong after forced failures: num=%d need=%v",
			d.StolenNum(), d.NeedTask())
	}
	// Hook exhausted: the next steal succeeds and clears the signal.
	e, ok := d.Steal()
	if !ok || e.(*entry).id != 0 {
		t.Fatalf("steal after forced burst: ok=%v e=%v", ok, e)
	}
	if d.StolenNum() != 0 || d.NeedTask() {
		t.Fatal("successful steal did not clear the starvation signal")
	}
	want := []TraceOp{TraceStealFail, TraceStealFail, TraceStealFail, TraceStealFail, TraceStealOK}
	if len(ops) != len(want) {
		t.Fatalf("trace ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("trace ops = %v, want %v", ops, want)
		}
	}
	// nil uninstalls.
	d.SetFailSteal(nil)
	if _, ok := d.Steal(); !ok {
		t.Fatal("steal failed after uninstalling the hook")
	}
}

// A Growable steals through the same gate as a fixed deque.
func TestGrowableSetFailSteal(t *testing.T) {
	g := NewGrowable(8, 20)
	g.Push(item(1))
	g.SetFailSteal(func() bool { return true })
	if _, ok := g.Steal(); ok {
		t.Fatal("forced failure did not reach the growable's inner deque")
	}
	g.SetFailSteal(nil)
	if _, ok := g.Steal(); !ok {
		t.Fatal("steal failed after uninstalling the hook")
	}
}
