package deque

import "testing"

// failEmptyKinds are the deque types FailEmpty runs on: the THE deque and
// the relaxed variant, which inherits it from its embedded Deque.
var failEmptyKinds = []struct {
	name string
	mk   func(maxStolenNum int) WorkDeque
}{
	{"the", func(m int) WorkDeque { return New(16, m) }},
	{"relaxed", func(m int) WorkDeque { return NewRelaxed(16, m) }},
}

// dequeState is everything a steal attempt may touch.
type dequeState struct {
	h, t, stolenNum int64
	needTask        bool
}

func stateOf(d WorkDeque) dequeState {
	var dd *Deque
	switch v := d.(type) {
	case *Deque:
		dd = v
	case *Relaxed:
		dd = v.Deque
	}
	return dequeState{dd.h.Load(), dd.t.Load(), dd.stolenNum.Load(), dd.needTask.Load()}
}

// TestFailEmptyMatchesStealN: on an empty deque FailEmpty is the failed
// StealN — the same stolen_num bump after every attempt, need_task raised at
// attempt maxStolenNum+1 and not before, H and T where they were — also
// when the owner's pushes and pops have left the deque empty away from the
// origin. A later push is stolen as usual and clears both.
func TestFailEmptyMatchesStealN(t *testing.T) {
	const maxStolenNum = 3
	for _, k := range failEmptyKinds {
		t.Run(k.name, func(t *testing.T) {
			fast, locked := k.mk(maxStolenNum), k.mk(maxStolenNum)
			for _, d := range []WorkDeque{fast, locked} {
				for i := 0; i < 5; i++ {
					d.Push(item(i))
				}
				for i := 0; i < 5; i++ {
					d.Pop()
				}
			}
			for i := 1; i <= maxStolenNum+2; i++ {
				if !fast.FailEmpty() {
					t.Fatalf("attempt %d: FailEmpty declined an empty deque", i)
				}
				if n := locked.StealN(make([]Entry, 2)); n != 0 {
					t.Fatalf("attempt %d: StealN took %d from an empty deque", i, n)
				}
				got, want := stateOf(fast), stateOf(locked)
				if got != want {
					t.Errorf("attempt %d: FailEmpty left %+v, StealN %+v", i, got, want)
				}
				if got.stolenNum != int64(i) || got.needTask != (i > maxStolenNum) {
					t.Errorf("attempt %d: stolen_num %d need_task %v", i, got.stolenNum, got.needTask)
				}
			}
			fast.Push(item(9))
			if e, ok := fast.Steal(); !ok || e.(*entry).id != 9 {
				t.Fatalf("steal after FailEmpty: %v %v", e, ok)
			}
			if fast.StolenNum() != 0 || fast.NeedTask() {
				t.Errorf("a successful steal left stolen_num %d need_task %v", fast.StolenNum(), fast.NeedTask())
			}
		})
	}
}

// TestFailEmptyDeclinesNonEmpty: a deque holding an entry — a plain one, or
// a special marker with no child, which StealN fails under the lock — is
// left to StealN untouched.
func TestFailEmptyDeclinesNonEmpty(t *testing.T) {
	for _, k := range failEmptyKinds {
		for _, head := range []*entry{item(1), specialItem(1)} {
			d := k.mk(1)
			d.FailEmpty() // stolen_num 1
			d.FailEmpty() // need_task raised
			d.Push(head)
			before := stateOf(d)
			if d.FailEmpty() {
				t.Errorf("%s, head special %v: FailEmpty failed a deque holding an entry", k.name, head.special)
			}
			if after := stateOf(d); after != before {
				t.Errorf("%s, head special %v: FailEmpty moved %+v to %+v", k.name, head.special, before, after)
			}
		}
	}
}

// TestFailEmptyDefersToHooks: with a trace or fault hook installed FailEmpty
// declines even an empty deque, so the attempt goes through StealN, where
// the hook sees it.
func TestFailEmptyDefersToHooks(t *testing.T) {
	for _, k := range failEmptyKinds {
		traced := k.mk(3)
		calls := 0
		traced.SetTrace(func(TraceOp, int64, bool) { calls++ })
		faulted := k.mk(3)
		faulted.SetFailSteal(func() bool { calls++; return true })
		for _, d := range []WorkDeque{traced, faulted} {
			before := stateOf(d)
			if d.FailEmpty() {
				t.Errorf("%s: FailEmpty failed an attempt past an installed hook", k.name)
			}
			if after := stateOf(d); after != before {
				t.Errorf("%s: FailEmpty moved %+v to %+v", k.name, before, after)
			}
		}
		if calls != 0 {
			t.Errorf("%s: FailEmpty called a hook %d times", k.name, calls)
		}
	}
}
