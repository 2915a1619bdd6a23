package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

// stealN is a test helper: batch-steal up to max entries from d.
func stealN(d WorkDeque, max int) []Entry {
	dst := make([]Entry, max)
	n := d.StealN(dst)
	return dst[:n]
}

func TestStealNBatchFIFO(t *testing.T) {
	for _, mk := range []struct {
		name string
		d    WorkDeque
	}{
		{"fixed", New(16, 20)},
		{"growable", NewGrowable(16, 20)},
		{"relaxed", NewRelaxed(16, 20)},
	} {
		d := mk.d
		for i := 0; i < 8; i++ {
			d.Push(item(i))
		}
		got := stealN(d, 3)
		if len(got) != 3 {
			t.Fatalf("%s: StealN took %d entries, want 3", mk.name, len(got))
		}
		for i, e := range got {
			if e.(*entry).id != i {
				t.Errorf("%s: batch[%d] = %d, want %d (head order)", mk.name, i, e.(*entry).id, i)
			}
			if e.(*entry).stolen.Load() != 1 {
				t.Errorf("%s: OnStolen not called exactly once for %d", mk.name, i)
			}
		}
		// The owner's view: 5 entries remain, poppable LIFO from the tail.
		if got := d.Size(); got != 5 {
			t.Fatalf("%s: size after batch = %d, want 5", mk.name, got)
		}
		e, ok := d.Pop()
		if !ok || e.(*entry).id != 7 {
			t.Fatalf("%s: pop after batch = %v/%v, want 7", mk.name, e, ok)
		}
	}
}

func TestStealNClampedToAvailable(t *testing.T) {
	d := New(16, 20)
	d.Push(item(0))
	d.Push(item(1))
	got := stealN(d, 8)
	if len(got) != 2 {
		t.Fatalf("StealN took %d, want 2 (all available)", len(got))
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("deque should be empty after the batch took everything")
	}
}

func TestStealNEmptyFailsOnce(t *testing.T) {
	d := New(16, 3)
	var fails int
	d.SetTrace(func(op TraceOp, stolenNum int64, needTask bool) {
		if op == TraceStealFail {
			fails++
		}
	})
	if n := d.StealN(make([]Entry, 8)); n != 0 {
		t.Fatalf("StealN on empty deque took %d", n)
	}
	if fails != 1 {
		t.Fatalf("empty batch attempt recorded %d steal-fail transitions, want exactly 1", fails)
	}
	if d.StolenNum() != 1 {
		t.Fatalf("stolen_num = %d after one failed batch, want 1", d.StolenNum())
	}
}

func TestStealNStopsAtSpecialMarker(t *testing.T) {
	d := New(16, 20)
	d.Push(item(0))
	d.Push(item(1))
	d.Push(specialItem(2))
	d.Push(item(3))
	got := stealN(d, 8)
	if len(got) != 2 || got[0].(*entry).id != 0 || got[1].(*entry).id != 1 {
		t.Fatalf("batch = %v, want exactly the two entries before the marker", got)
	}
	// The marker is now the head: a second batch degrades to
	// steal_specialtask and takes the marker's child.
	got = stealN(d, 8)
	if len(got) != 1 || got[0].(*entry).id != 3 {
		t.Fatalf("batch over marker = %v, want the marker's child 3", got)
	}
	// The marker itself stays owned by the victim.
	if stolen := d.PopSpecial(); !stolen {
		t.Fatal("PopSpecial did not report the child theft")
	}
}

func TestStealNHeadSpecialNoChildFails(t *testing.T) {
	d := New(16, 20)
	d.Push(specialItem(0))
	if n := d.StealN(make([]Entry, 4)); n != 0 {
		t.Fatalf("batch stole %d over a childless marker, want 0", n)
	}
	if d.StolenNum() != 1 {
		t.Fatalf("stolen_num = %d, want 1", d.StolenNum())
	}
}

// TestStealIsStealNOfOne replays one attempt through both entry points on
// identically filled deques: what the thief gets, what the victim is left
// with and what the starvation FSM and its trace saw must not depend on
// which of the two was called — including over a special marker, with and
// without a child behind it.
func TestStealIsStealNOfOne(t *testing.T) {
	type outcome struct {
		id, size, onStolen int // id is -1 when the attempt failed
		stolenNum          int64
		needTask           bool
		traced             TraceOp
		markerRobbed       bool // PopSpecial's report, where a marker was pushed
	}
	for _, c := range []struct {
		name   string
		fill   []*entry // pushed in order; a fresh copy per deque
		marker bool     // the tail-most special entry is popped afterwards
		wantID int
		wantOp TraceOp
	}{
		{name: "plain head", fill: []*entry{item(0), item(1)}, wantID: 0, wantOp: TraceStealOK},
		{name: "empty", wantID: -1, wantOp: TraceStealFail},
		{name: "head is special", fill: []*entry{specialItem(0), item(1)}, marker: true, wantID: 1, wantOp: TraceStealSpecial},
		{name: "head is special without child", fill: []*entry{specialItem(0)}, marker: true, wantID: -1, wantOp: TraceStealFail},
	} {
		attempt := func(batch bool) outcome {
			d := New(16, 1)
			d.stolenNum.Store(1) // one failure short of raising need_task
			var o outcome
			d.SetTrace(func(op TraceOp, _ int64, _ bool) { o.traced = op })
			fill := make([]*entry, len(c.fill))
			for i, e := range c.fill {
				fill[i] = &entry{id: e.id, special: e.special}
				d.Push(fill[i])
			}
			var e Entry
			ok := false
			if batch {
				var dst [1]Entry
				ok = d.StealN(dst[:]) == 1
				e = dst[0]
			} else {
				e, ok = d.Steal()
			}
			o.id = -1
			if ok {
				o.id = e.(*entry).id
				o.onStolen = int(e.(*entry).stolen.Load())
			}
			o.stolenNum, o.needTask = d.StolenNum(), d.NeedTask()
			if c.marker {
				if len(fill) > 1 && !ok {
					d.Pop() // the child the thief did not take
				}
				o.markerRobbed = d.PopSpecial()
			}
			o.size = d.Size()
			return o
		}
		single, batch := attempt(false), attempt(true)
		if single != batch {
			t.Errorf("%s: Steal %+v, StealN of one %+v", c.name, single, batch)
		}
		if single.id != c.wantID || single.traced != c.wantOp || single.needTask != (c.wantID < 0) {
			t.Errorf("%s: Steal %+v, want entry %d by %v", c.name, single, c.wantID, c.wantOp)
		}
	}
}

// TestFailLockedTable pins the shared fail-path semantics Steal and StealN
// both go through: the stolen_num counter, the need_task threshold and the
// trace transition must evolve identically whether a failure came from an
// organic empty deque, a forced injection, or a batch attempt. One step per
// row; the table is replayed against both entry points.
func TestFailLockedTable(t *testing.T) {
	type step struct {
		op       string // "push", "steal", "fail-steal" (forced), "check"
		wantOK   bool   // for steal steps: success expected
		wantNum  int64  // post-step stolen_num
		wantNeed bool   // post-step need_task
	}
	script := []step{
		{op: "steal", wantOK: false, wantNum: 1, wantNeed: false},
		{op: "steal", wantOK: false, wantNum: 2, wantNeed: false},
		{op: "fail-steal", wantOK: false, wantNum: 3, wantNeed: false}, // injected, same path
		{op: "steal", wantOK: false, wantNum: 4, wantNeed: true},       // past max_stolen_num=3
		{op: "steal", wantOK: false, wantNum: 5, wantNeed: true},
		{op: "push"},
		{op: "steal", wantOK: true, wantNum: 0, wantNeed: false}, // success clears both
		{op: "fail-steal", wantOK: false, wantNum: 1, wantNeed: false},
		{op: "push"},
		{op: "steal", wantOK: true, wantNum: 0, wantNeed: false},
	}
	for _, mode := range []string{"steal", "stealN"} {
		d := New(16, 3)
		forced := false
		d.SetFailSteal(func() bool { return forced })
		var traced []TraceOp
		d.SetTrace(func(op TraceOp, stolenNum int64, needTask bool) {
			traced = append(traced, op)
		})
		id := 0
		for i, s := range script {
			switch s.op {
			case "push":
				d.Push(item(id))
				id++
				continue
			case "fail-steal":
				forced = true
			case "steal":
				forced = false
			}
			var ok bool
			if mode == "steal" {
				_, ok = d.Steal()
			} else {
				ok = d.StealN(make([]Entry, 4)) > 0
			}
			if ok != s.wantOK {
				t.Fatalf("%s step %d (%s): ok = %v, want %v", mode, i, s.op, ok, s.wantOK)
			}
			if got := d.StolenNum(); got != s.wantNum {
				t.Errorf("%s step %d (%s): stolen_num = %d, want %d", mode, i, s.op, got, s.wantNum)
			}
			if got := d.NeedTask(); got != s.wantNeed {
				t.Errorf("%s step %d (%s): need_task = %v, want %v", mode, i, s.op, got, s.wantNeed)
			}
		}
		// Trace symmetry: every failed attempt produced exactly one
		// TraceStealFail and every success exactly one TraceStealOK,
		// regardless of entry point.
		fails, oks := 0, 0
		for _, op := range traced {
			switch op {
			case TraceStealFail:
				fails++
			case TraceStealOK:
				oks++
			}
		}
		if fails != 6 || oks != 2 {
			t.Errorf("%s: trace saw %d fails / %d oks, want 6/2", mode, fails, oks)
		}
	}
}

func TestStealNForcedFailureCountsOnce(t *testing.T) {
	d := New(16, 20)
	for i := 0; i < 8; i++ {
		d.Push(item(i))
	}
	d.SetFailSteal(func() bool { return true })
	if n := d.StealN(make([]Entry, 8)); n != 0 {
		t.Fatalf("forced failure still stole %d entries", n)
	}
	if d.StolenNum() != 1 {
		t.Fatalf("a forced batch failure bumped stolen_num to %d, want 1 (one attempt, one failure)", d.StolenNum())
	}
	d.SetFailSteal(nil)
	if got := stealN(d, 8); len(got) != 8 {
		t.Fatalf("after clearing the gate the batch took %d, want 8", len(got))
	}
}

// TestStealNConcurrentWithOwner hammers batch thieves against a pushing and
// popping owner: every entry must be consumed exactly once, by exactly one
// side.
func TestStealNConcurrentWithOwner(t *testing.T) {
	for _, mk := range []struct {
		name string
		d    WorkDeque
	}{
		{"fixed", New(32768, 20)}, // capacity ≥ total: starved thieves must never overflow it
		{"relaxed", NewRelaxed(64, 20)},
	} {
		d := mk.d
		const total = 20000
		var stolen, popped int64
		seen := make([]int32, total)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for th := 0; th < 3; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]Entry, 5)
				local := int64(0)
				for {
					n := d.StealN(dst)
					for i := 0; i < n; i++ {
						seen[dst[i].(*entry).id]++
						local++
					}
					if n == 0 {
						select {
						case <-stop:
							mu.Lock()
							stolen += local
							mu.Unlock()
							return
						default:
						}
					}
				}
			}()
		}
		for i := 0; i < total; i++ {
			if !d.Push(item(i)) {
				t.Fatalf("%s: push %d overflowed", mk.name, i)
			}
			if i%3 == 0 {
				if e, ok := d.Pop(); ok {
					seen[e.(*entry).id]++
					popped++
				}
			}
		}
		for {
			e, ok := d.Pop()
			if !ok {
				break
			}
			seen[e.(*entry).id]++
			popped++
		}
		close(stop)
		wg.Wait()
		if got := stolen + popped; got != total {
			t.Fatalf("%s: consumed %d entries (%d stolen + %d popped), want %d", mk.name, got, stolen, popped, total)
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("%s: entry %d consumed %d times", mk.name, id, n)
			}
		}
	}
}

// TestStealNWhileRingGrows races batch and single thieves against an owner
// whose deques start at their first ring and must double it again and again
// (the owner pushes three entries for every pop): every entry is consumed
// exactly once, and under -race a slot read that the T publication or the
// lock does not order shows up as a report.
func TestStealNWhileRingGrows(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func() WorkDeque
	}{
		{"fixed", func() WorkDeque { return New(1<<14, 20) }},
		{"growable", func() WorkDeque { return NewGrowable(8, 20) }},
		{"relaxed", func() WorkDeque { return NewRelaxed(8, 20) }},
	} {
		const rounds, perRound = 8, 3000
		seen := make([]atomic.Int32, rounds*perRound)
		var stolen atomic.Int64
		popped := 0
		grown := int64(0) // the largest ring a round ended with, in first rings
		for r := 0; r < rounds; r++ {
			d := mk.new()
			first := ringOf(d)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for th := 0; th < 3; th++ {
				wg.Add(1)
				go func(batch int) {
					defer wg.Done()
					dst := make([]Entry, batch)
					for {
						n := d.StealN(dst)
						for i := 0; i < n; i++ {
							seen[dst[i].(*entry).id].Add(1)
						}
						stolen.Add(int64(n))
						if n == 0 {
							select {
							case <-stop:
								return
							default:
							}
						}
					}
				}(1 + 3*th)
			}
			for i := 0; i < perRound; i++ {
				if !d.Push(item(r*perRound + i)) {
					t.Fatalf("%s: push %d overflowed", mk.name, i)
				}
				if i%3 == 0 {
					if e, ok := d.Pop(); ok {
						seen[e.(*entry).id].Add(1)
						popped++
					}
				}
			}
			for {
				e, ok := d.Pop()
				if !ok {
					break
				}
				seen[e.(*entry).id].Add(1)
				popped++
			}
			close(stop)
			wg.Wait()
			grown = max(grown, ringOf(d)/first)
		}
		if grown < 4 {
			t.Errorf("%s: no round grew its ring past twice its first size; the stress did not exercise growth", mk.name)
		}
		if got := stolen.Load() + int64(popped); got != rounds*perRound {
			t.Fatalf("%s: consumed %d entries (%d stolen + %d popped), want %d", mk.name, got, stolen.Load(), popped, rounds*perRound)
		}
		for id := range seen {
			if n := seen[id].Load(); n != 1 {
				t.Fatalf("%s: entry %d consumed %d times", mk.name, id, n)
			}
		}
	}
}

// mu guards the cross-goroutine counters of the concurrent tests above;
// seen[] itself is safe because each id is consumed exactly once (what the
// test asserts) — a double-consumption bug shows up as a count, and under
// -race as the write race it truly is.
var mu sync.Mutex

// ringOf reads a deque's current ring size; the deque must be quiescent.
func ringOf(d WorkDeque) int64 {
	switch d := d.(type) {
	case *Deque:
		return int64(len(d.buf))
	case *Relaxed:
		return int64(len(d.buf))
	}
	return 0
}
