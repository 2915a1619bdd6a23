package synthtree

import (
	"slices"
	"testing"
	"testing/quick"

	"adaptivetc/internal/progtest"
	"adaptivetc/internal/sched"
)

func countSerial(t *testing.T, p *Program) int64 {
	t.Helper()
	res, err := sched.Serial{}.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func TestValueEqualsSize(t *testing.T) {
	for _, spec := range []Spec{Tree1(5000), Tree2(5000), Tree3(5000), Fig8(5000)} {
		if got := countSerial(t, New(spec)); got != spec.Size {
			t.Errorf("%s: value = %d, want %d", spec.Label, got, spec.Size)
		}
	}
}

func TestValueEqualsSizeQuick(t *testing.T) {
	f := func(raw uint16, reversed bool) bool {
		size := int64(raw)%5000 + 1
		spec := Tree1(size)
		spec.Seed = uint32(raw)
		spec.Reversed = reversed
		return countSerial(t, New(spec)) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	spec := Tree2(20000)
	spec.Seed = 99
	a := sched.Analyze(New(spec), 0)
	b := sched.Analyze(New(spec), 0)
	if a.Nodes != b.Nodes || a.Depth != b.Depth || a.Leaves != b.Leaves {
		t.Fatalf("same spec produced different trees: %v vs %v", a, b)
	}
}

func TestReverseMirrorsShape(t *testing.T) {
	l := Tree3(30000)
	r := l.Reverse()
	if r.Label != "tree3R" {
		t.Fatalf("reversed label = %q", r.Label)
	}
	sl := sched.Analyze(New(l), 0)
	sr := sched.Analyze(New(r), 0)
	if sl.Nodes != sr.Nodes || sl.Leaves != sr.Leaves || sl.Depth != sr.Depth {
		t.Fatalf("mirror changed totals: %v vs %v", sl, sr)
	}
	// The depth-1 size vectors must be exact mirrors.
	for i := range sl.Depth1 {
		if sl.Depth1[i] != sr.Depth1[len(sr.Depth1)-1-i] {
			t.Fatalf("depth-1 sizes not mirrored: %v vs %v", sl.Depth1, sr.Depth1)
		}
	}
}

func TestTree3Skew(t *testing.T) {
	st := sched.Analyze(New(Tree3(100000)), 0)
	pct := st.Depth1Percent()
	if len(pct) == 0 {
		t.Fatal("no depth-1 children")
	}
	// Table 3 says Tree3L's first child holds ~89.7% of the tree; the root
	// split is exact up to integer apportionment.
	if pct[0] < 85 {
		t.Errorf("tree3L first child holds %.1f%%, want the lion's share (~89.7%% in Table 3)", pct[0])
	}
	t.Logf("tree3L: %v", st)
}

func TestTree1MatchesTable3Roughly(t *testing.T) {
	st := sched.Analyze(New(Tree1(200000)), 0)
	want := []float64{42.512, 25.362, 13.019, 4.936, 0.416, 11.771, 1.984}
	pct := st.Depth1Percent()
	if len(pct) != len(want) {
		t.Fatalf("got %d depth-1 children, want %d (%v)", len(pct), len(want), pct)
	}
	for i := range want {
		if diff := pct[i] - want[i]; diff > 3 || diff < -3 {
			t.Errorf("child %d holds %.2f%%, Table 3 says %.2f%%", i, pct[i], want[i])
		}
	}
}

func TestNoInfiniteRecursion(t *testing.T) {
	// Extreme concentration used to make a child as large as its parent;
	// the shave-one-unit guard must keep depth finite.
	spec := Spec{Label: "extreme", Size: 3000, RootFractions: []float64{1, 0.0000001}, Alpha: 12}
	st := sched.Analyze(New(spec), 0)
	if st.Depth <= 0 || int64(st.Depth) > spec.Size {
		t.Fatalf("suspicious depth %d", st.Depth)
	}
	if got := countSerial(t, New(spec)); got != 3000 {
		t.Fatalf("value = %d, want 3000", got)
	}
}

func TestCloneIsolation(t *testing.T) {
	p := New(Tree1(1000))
	root := p.Root()
	if !p.Apply(root, 0, 0) {
		t.Fatal("move refused")
	}
	c := p.Root()
	c.(*ws).CopyFrom(root)
	p.Undo(root, 0, 0)
	if len(c.(*ws).stack) != 2 {
		t.Fatal("copy lost the descent")
	}
	if len(root.(*ws).stack) != 1 {
		t.Fatal("undo failed")
	}

	// The kids slab: each copy owns its child sizes, and a copy starts with
	// no scratch of its own.
	p = New(Tree3(30000))
	path := deepestPath(p)[:4]
	source := func() *ws {
		w := p.Root()
		descend(t, p, w, path)
		p.Undo(w, 3, path[3]) // four levels, all expanded
		return w.(*ws)
	}
	// resplit replaces level 3 with an interior sibling and expands it.
	resplit := func(w *ws) {
		p.Undo(w, 2, path[2])
		for m := 0; m < p.Moves(w, 2); m++ {
			if m == path[2] || !p.Apply(w, 2, m) {
				continue
			}
			if _, leaf := p.Terminal(w, 3); !leaf {
				p.Apply(w, 3, 0)
				return
			}
			p.Undo(w, 2, m)
		}
		t.Fatal("no interior sibling at depth 3")
	}
	copies := map[string]func(*ws) *ws{
		"Clone": func(s *ws) *ws { return s.Clone().(*ws) },
		"CopyFrom": func(s *ws) *ws {
			c := p.Root().(*ws)
			c.CopyFrom(s)
			return c
		},
	}
	for name, copyOf := range copies {
		for _, moveCopy := range []bool{true, false} {
			s := source()
			c := copyOf(s)
			if &c.kids[0] == &s.kids[0] {
				t.Fatalf("%s shares its kids slab with the source", name)
			}
			if c.scratch != nil {
				t.Fatalf("%s gave the copy the source's scratch (cap %d)", name, cap(c.scratch))
			}
			if !slices.Equal(c.kids, s.kids) || !slices.Equal(c.stack, s.stack) {
				t.Fatalf("%s differs from its source", name)
			}
			moved, kept := s, c
			if moveCopy {
				moved, kept = c, s
			}
			want := slices.Clone(kept.kids)
			resplit(moved)
			if !slices.Equal(kept.kids, want) {
				t.Fatalf("%s: splitting a node on one side rewrote the other's child sizes\n got %v\nwant %v", name, kept.kids, want)
			}
			if slices.Equal(moved.kids, want) {
				t.Fatalf("%s: the resplit changed nothing; the case tests nothing", name)
			}
		}
	}
}

func TestConformance(t *testing.T) {
	spec := Tree2(3000)
	spec.Seed = 77
	progtest.Conformance(t, New(spec))
	progtest.Conformance(t, New(spec.Reverse()))
}
