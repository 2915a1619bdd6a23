package lang

import (
	"testing"

	"adaptivetc/internal/sched"
)

// permSrc counts permutations: the one example whose apply block has a for
// loop (and rejects from inside it), so it exercises env.locals as well as
// the rollback log.
const permSrc = `
param n = 5
state used[n]
state picks[n]
terminal depth == n -> 1
moves n
apply {
    used[m] = used[m] + 1
    for i = 0 to depth {
        if picks[i] == m { reject }
    }
    picks[depth] = m
}
undo {
    used[m] = used[m] - 1
}
`

// descend plays the first legal move at each of the first depth levels.
func descend(t *testing.T, p *Program, ws sched.Workspace, depth int) {
	t.Helper()
	for d := 0; d < depth; d++ {
		m := 0
		for !p.Apply(ws, d, m) {
			if m++; m >= p.Moves(ws, d) {
				t.Fatalf("no legal move at depth %d", d)
			}
		}
	}
}

// TestAllocBudget pins the evaluator's allocation budget on a warm
// workspace: nothing per Terminal, Moves, Apply (accepted or rolled back),
// Undo or CopyFrom, and at most the struct and the cells per Clone.
func TestAllocBudget(t *testing.T) {
	cases := []struct {
		name, src string
		n         int64
	}{
		{"nqueens", NQueensSrc, 6},
		{"fib", FibSrc, 12},
		{"latin", LatinSrc, 3},
		{"perm-for-loop", permSrc, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := compileT(t, c.src, map[string]int64{"n": c.n})
			ws, dst := p.Root(), p.Root().(sched.Reusable)
			const depth = 2
			descend(t, p, ws, depth)
			legal, illegal := -1, -1
			for m := p.Moves(ws, depth) - 1; m >= 0; m-- {
				if p.Apply(ws, depth, m) { // also warms the log and the locals
					p.Undo(ws, depth, m)
					legal = m
				} else {
					illegal = m
				}
			}
			if legal < 0 {
				t.Fatal("no legal move to measure")
			}
			check := func(what string, budget float64, f func()) {
				t.Helper()
				if got := testing.AllocsPerRun(200, f); got > budget {
					t.Errorf("%s: %v allocs per call, budget %v", what, got, budget)
				}
			}
			check("Terminal", 0, func() { p.Terminal(ws, depth) })
			check("Moves", 0, func() { p.Moves(ws, depth) })
			check("Apply+Undo", 0, func() {
				p.Apply(ws, depth, legal)
				p.Undo(ws, depth, legal)
			})
			if illegal >= 0 { // fib rejects nothing
				check("rejected Apply", 0, func() { p.Apply(ws, depth, illegal) })
			}
			check("CopyFrom", 0, func() { dst.CopyFrom(ws) })
			check("Clone", 2, func() { ws.Clone() })
		})
	}
}

// hazardSrc writes before it decides: move 3 is rejected after a visible
// write, move 2 faults after one, and the loop makes every apply cost four
// budgeted iterations.
const hazardSrc = `
state a[4]
state spin
terminal depth == 9 -> 1
moves 4
apply {
    a[m] = a[m] + 1
    for i = 0 to 4 { spin = i }
    if m == 3 { reject }
    if m == 2 { a[m + 2] = 1 }
}
undo { a[m] = a[m] - 1 }
`

// TestScratchReuse covers what the per-call env made impossible: state one
// call leaves in the workspace's scratch must never reach the next.
func TestScratchReuse(t *testing.T) {
	p := compileT(t, hazardSrc, nil)
	cells := func(w sched.Workspace) []int64 { return w.(*workspace).ev.ws }

	t.Run("reject then accept then reject", func(t *testing.T) {
		ws := p.Root()
		if p.Apply(ws, 0, 3) {
			t.Fatal("move 3 accepted")
		}
		if !p.Apply(ws, 0, 0) {
			t.Fatal("a stale rejected flag refused a legal move")
		}
		// A log still holding the first two calls' records would now roll
		// a[0] back to 0 as well.
		if p.Apply(ws, 0, 3) {
			t.Fatal("move 3 accepted")
		}
		if got := cells(ws); got[0] != 1 || got[3] != 0 {
			t.Fatalf("cells after reject/accept/reject = %v, want a[0]=1 a[3]=0", got)
		}
	})

	t.Run("guarded then unguarded", func(t *testing.T) {
		// The init probe of a guarded program ran on wsProto under a
		// budget smaller than one apply; an engine call on that very
		// workspace is unbounded again.
		g, err := CompileProgramGuarded("g", hazardSrc, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		if g.wsProto.ev.budget != 3 {
			t.Fatalf("probe budget = %d, want 3", g.wsProto.ev.budget)
		}
		if !g.Apply(g.wsProto, 0, 0) {
			t.Fatal("legal move refused")
		}
	})

	t.Run("fault mid-apply", func(t *testing.T) {
		ws := p.Root()
		func() {
			defer func() {
				if _, ok := recover().(*Error); !ok {
					t.Fatal("move 2 did not fault")
				}
			}()
			p.Apply(ws, 0, 2)
		}()
		ev := &ws.(*workspace).ev
		if !ev.logging || len(ev.log) == 0 {
			t.Fatal("the fault left nothing behind: the case tests nothing")
		}
		p.Undo(ws, 0, 2)
		if ev.logging || ev.rejected || len(ev.log) != 0 {
			t.Fatalf("after the next call: logging=%v rejected=%v log=%d records", ev.logging, ev.rejected, len(ev.log))
		}
	})

	t.Run("clone between applies", func(t *testing.T) {
		ws := p.Root()
		p.Apply(ws, 0, 3) // warm log and locals
		p.Apply(ws, 0, 0)
		c := ws.Clone()
		pe, ce := &ws.(*workspace).ev, &c.(*workspace).ev
		if ce.log != nil || ce.locals != nil {
			t.Fatalf("clone inherited scratch: log cap %d, locals cap %d", cap(ce.log), cap(ce.locals))
		}
		if &pe.ws[0] == &ce.ws[0] {
			t.Fatal("clone shares its cells with the parent")
		}
		p.Apply(c, 1, 3)
		p.Apply(ws, 1, 1)
		if got := cells(ws); got[0] != 1 || got[1] != 1 || got[3] != 0 {
			t.Fatalf("parent cells = %v after the clone's rejected apply", got)
		}
		if got := cells(c); got[0] != 1 || got[1] != 0 || got[3] != 0 {
			t.Fatalf("clone cells = %v after the parent's apply", got)
		}
		if c.Bytes() != ws.Bytes() || ws.Bytes() != 8*5 {
			t.Fatalf("Bytes = %d / %d, want the 5 cells only", ws.Bytes(), c.Bytes())
		}
	})
}
