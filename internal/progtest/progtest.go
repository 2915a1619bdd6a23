// Package progtest is a conformance harness for sched.Program
// implementations: every benchmark problem must satisfy the contracts the
// scheduling engines rely on (deterministic evaluation, clean Apply/Undo
// round-trips, deep-copy Clone/CopyFrom isolation, a copy charge that does not
// depend on the buffer). Each problem package's tests call Conformance
// with a small instance.
package progtest

import (
	"math/rand"
	"testing"

	"adaptivetc/internal/sched"
)

// Conformance runs the full contract battery on a small instance of p.
// The instance should evaluate in well under a second serially.
func Conformance(t *testing.T, p sched.Program) {
	t.Helper()
	t.Run("deterministic", func(t *testing.T) { deterministic(t, p) })
	t.Run("churned-workspace", func(t *testing.T) { churned(t, p) })
	t.Run("clone-isolation", func(t *testing.T) { cloneIsolation(t, p) })
	t.Run("copyfrom-matches-clone", func(t *testing.T) { copyFrom(t, p) })
	t.Run("illegal-apply-is-pure", func(t *testing.T) { illegalPure(t, p) })
	t.Run("bytes-ignore-buffer", func(t *testing.T) { Bytes(t, p) })
}

func serialValue(t *testing.T, p sched.Program) int64 {
	t.Helper()
	res, err := sched.Serial{}.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

// evalOn evaluates p's subtree on a given workspace/depth without engines.
func evalOn(p sched.Program, ws sched.Workspace, depth int) int64 {
	if v, term := p.Terminal(ws, depth); term {
		return v
	}
	var sum int64
	n := p.Moves(ws, depth)
	for m := 0; m < n; m++ {
		if !p.Apply(ws, depth, m) {
			continue
		}
		sum += evalOn(p, ws, depth+1)
		p.Undo(ws, depth, m)
	}
	return sum
}

func deterministic(t *testing.T, p sched.Program) {
	a := serialValue(t, p)
	b := serialValue(t, p)
	if a != b {
		t.Fatalf("two serial runs disagree: %d vs %d", a, b)
	}
}

// churned exercises a workspace with random apply/undo walks, then
// evaluates on it: the answer must match a fresh workspace's.
func churned(t *testing.T, p sched.Program) {
	want := evalOn(p, p.Root(), 0)
	rng := rand.New(rand.NewSource(7))
	ws := p.Root()
	for trial := 0; trial < 20; trial++ {
		depth := 0
		var applied []int
		for step := 0; step < 50; step++ {
			if _, term := p.Terminal(ws, depth); term {
				break
			}
			m := rng.Intn(p.Moves(ws, depth))
			if p.Apply(ws, depth, m) {
				applied = append(applied, m)
				depth++
			}
		}
		for len(applied) > 0 {
			depth--
			p.Undo(ws, depth, applied[len(applied)-1])
			applied = applied[:len(applied)-1]
		}
		if got := evalOn(p, ws, 0); got != want {
			t.Fatalf("trial %d: churned workspace evaluates to %d, fresh to %d", trial, got, want)
		}
	}
}

// cloneIsolation clones mid-descent and checks the two workspaces evolve
// independently: evaluating the clone's residual subtree twice must agree,
// and the original, after undo, must still produce the full answer.
func cloneIsolation(t *testing.T, p sched.Program) {
	want := evalOn(p, p.Root(), 0)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		ws := p.Root()
		depth := 0
		var applied []int
		steps := rng.Intn(6)
		for step := 0; step < steps; step++ {
			if _, term := p.Terminal(ws, depth); term {
				break
			}
			m := rng.Intn(p.Moves(ws, depth))
			if p.Apply(ws, depth, m) {
				applied = append(applied, m)
				depth++
			}
		}
		cloneDepth := depth
		c1 := ws.Clone()
		c2 := ws.Clone()
		// Every move, legal or rejected, on both sides in turn: whatever an
		// Apply keeps for its rollback belongs to one workspace.
		tryMoves(p, ws, cloneDepth)
		tryMoves(p, c1, cloneDepth)
		tryMoves(p, ws, cloneDepth)
		v1 := evalOn(p, c1, cloneDepth)
		// Mutating the original must not disturb the clones.
		for len(applied) > 0 {
			depth--
			p.Undo(ws, depth, applied[len(applied)-1])
			applied = applied[:len(applied)-1]
		}
		v2 := evalOn(p, c2, cloneDepth)
		if v1 != v2 {
			t.Fatalf("trial %d: clones evaluate differently: %d vs %d", trial, v1, v2)
		}
		if got := evalOn(p, ws, 0); got != want {
			t.Fatalf("trial %d: original corrupted after cloning: %d vs %d", trial, got, want)
		}
	}
}

// tryMoves applies every candidate move at depth and takes the legal ones
// back, leaving ws as it found it.
func tryMoves(p sched.Program, ws sched.Workspace, depth int) {
	if _, term := p.Terminal(ws, depth); term {
		return
	}
	for m, n := 0, p.Moves(ws, depth); m < n; m++ {
		if p.Apply(ws, depth, m) {
			p.Undo(ws, depth, m)
		}
	}
}

// copyFrom checks sched.Reusable implementations against Clone.
func copyFrom(t *testing.T, p sched.Program) {
	ws := p.Root()
	dst, ok := p.Root().(sched.Reusable)
	if !ok {
		t.Skip("workspace is not Reusable")
	}
	depth := 0
	for m := 0; m < p.Moves(ws, depth); m++ {
		if p.Apply(ws, depth, m) {
			depth++
			break
		}
	}
	dst.CopyFrom(ws)
	a := evalOn(p, ws.Clone(), depth)
	b := evalOn(p, dst, depth)
	if a != b {
		t.Fatalf("CopyFrom result evaluates to %d, Clone to %d", b, a)
	}
}

// illegalPure verifies that a failed Apply leaves the workspace unchanged:
// the full evaluation afterwards must still be right.
func illegalPure(t *testing.T, p sched.Program) {
	want := evalOn(p, p.Root(), 0)
	ws := p.Root()
	n := p.Moves(ws, 0)
	illegal := 0
	for m := 0; m < n; m++ {
		if !p.Apply(ws, 0, m) {
			illegal++
			continue
		}
		p.Undo(ws, 0, m)
	}
	if got := evalOn(p, ws, 0); got != want {
		t.Fatalf("after %d failed applies, evaluation drifted: %d vs %d", illegal, got, want)
	}
}

// Bytes checks that the virtual copy charge depends on the node and not on
// the buffer the workspace lives in: Bytes() of a workspace, of its Clone and
// of a recycled Reusable holding the same state are equal — an engine that
// draws child workspaces from a pool must be charged what one that allocates
// them is. It walks the first-legal-move path to its end, then recycles in
// both directions a pool does: a clone of the root is CopyFrom-ed at the
// deepest node, and a workspace cloned there is CopyFrom-ed back at a
// shallower one; each result must also evaluate to the same subtree value as
// a Clone. Only a few levels above the path's end are evaluated, so an
// instance of any size is cheap.
func Bytes(t *testing.T, p sched.Program) {
	t.Helper()
	ws := p.Root()
	depth := 0
	same := func(what string, w sched.Workspace) {
		t.Helper()
		if got, want := w.Bytes(), ws.Bytes(); got != want {
			t.Fatalf("depth %d: Bytes() of %s is %d, of the workspace it copies %d", depth, what, got, want)
		}
	}
	shallow, reusable := ws.Clone().(sched.Reusable)
	var applied []int
descend:
	for {
		same("a Clone", ws.Clone())
		if _, term := p.Terminal(ws, depth); term {
			break
		}
		for m, n := 0, p.Moves(ws, depth); m < n; m++ {
			if p.Apply(ws, depth, m) {
				applied = append(applied, m)
				depth++
				continue descend
			}
		}
		break // no legal move: a dead end
	}
	if !reusable {
		return
	}
	recycle := func(dst sched.Reusable) {
		t.Helper()
		dst.CopyFrom(ws)
		same("a recycled workspace", dst)
		if a, b := evalOn(p, ws.Clone(), depth), evalOn(p, dst, depth); a != b {
			t.Fatalf("depth %d: CopyFrom result evaluates to %d, Clone to %d", depth, b, a)
		}
		same("a recycled workspace after evaluation", dst)
	}
	deep := ws.Clone().(sched.Reusable)
	recycle(shallow)
	for up := 0; up < 3 && depth > 0; up++ {
		depth--
		p.Undo(ws, depth, applied[depth])
	}
	recycle(deep)
}
