package wsrt

import (
	"fmt"
	"strings"
	"testing"

	"adaptivetc/internal/deque"
	"adaptivetc/internal/faults"
)

// testDeques builds n deques, with sizes[i] plain entries pushed into deque
// i (sizes may be shorter than n; missing sizes mean empty).
func testDeques(n int, sizes ...int) []deque.WorkDeque {
	ds := make([]deque.WorkDeque, n)
	for i := range ds {
		d := deque.NewGrowable(16, 20)
		if i < len(sizes) {
			for j := 0; j < sizes[i]; j++ {
				d.Push(&Frame{})
			}
		}
		ds[i] = d
	}
	return ds
}

func TestSplitmixIntnUnbiased(t *testing.T) {
	// With Lemire rejection the draw must be exactly uniform over small
	// ranges; a sloppy modulo over 2^64 would skew the low residues. 3 does
	// not divide 2^64, so it is the interesting case.
	s := faults.NewStream(1, thiefStream, 0)
	const draws = 300000
	var counts [3]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(3)]++
	}
	for r, c := range counts {
		if c < draws/3-2000 || c > draws/3+2000 {
			t.Errorf("residue %d drawn %d times, want %d±2000", r, c, draws/3)
		}
	}
}

func TestSplitmixStreamsDisjoint(t *testing.T) {
	a, b := faults.NewStream(7, thiefStream, 0), faults.NewStream(7, thiefStream, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent worker streams collided on %d of 64 draws", same)
	}
}

func TestPoliciesNeverPickSelf(t *testing.T) {
	for _, name := range StealPolicyNames() {
		p := StealPolicyByName(name)
		if p.Name() != name {
			t.Fatalf("policy %q resolves to %q", name, p.Name())
		}
		for _, n := range []int{2, 3, 5, 8} {
			ds := testDeques(n, 4, 4, 4, 4, 4, 4, 4, 4)
			for id := 0; id < n; id++ {
				th := p.NewThief(id, n, 1)
				for i := 0; i < 200; i++ {
					v, amount := th.Pick(ds)
					if v == id {
						t.Fatalf("%s: thief %d of %d picked itself on attempt %d", name, id, n, i)
					}
					if v < 0 || v >= n {
						t.Fatalf("%s: thief %d of %d picked out-of-range victim %d", name, id, n, v)
					}
					if amount < 1 || amount > MaxStealBatch {
						t.Fatalf("%s: amount %d out of [1,%d]", name, amount, MaxStealBatch)
					}
				}
			}
		}
	}
}

func TestRandomPolicyCoversAllVictims(t *testing.T) {
	const n = 5
	ds := testDeques(n)
	th := StealPolicyByName("random").NewThief(2, n, 1)
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		v, _ := th.Pick(ds)
		seen[v]++
	}
	for v := 0; v < n; v++ {
		if v == 2 {
			continue
		}
		if seen[v] < 300 {
			t.Errorf("victim %d picked only %d of 2000 times (uniform would give 500)", v, seen[v])
		}
	}
}

func TestStealHalfAmounts(t *testing.T) {
	th := StealPolicyByName("steal-half").NewThief(0, 2, 1)
	for _, tc := range []struct {
		size, want int
	}{
		{0, 1},   // empty victim: still attempt one, to drive the starvation FSM
		{1, 1},   // half rounds down to zero: clamp up
		{6, 3},   // the classic half
		{40, 16}, // clamped to MaxStealBatch
	} {
		ds := testDeques(2, 0, tc.size)
		v, amount := th.Pick(ds)
		if v != 1 {
			t.Fatalf("size %d: victim %d, want 1 (only other deque)", tc.size, v)
		}
		if amount != tc.want {
			t.Errorf("size %d: amount %d, want %d", tc.size, amount, tc.want)
		}
	}
}

func TestRichestFirstPicksDeepest(t *testing.T) {
	ds := testDeques(4, 2, 0, 9, 5)
	th := StealPolicyByName("richest-first").NewThief(0, 4, 1)
	for i := 0; i < 10; i++ {
		v, amount := th.Pick(ds)
		if v != 2 || amount != 1 {
			t.Fatalf("pick = (%d, %d), want deepest victim (2, 1)", v, amount)
		}
	}
	// Richest is the thief itself: the runner-up wins.
	th3 := StealPolicyByName("richest-first").NewThief(2, 4, 1)
	if v, _ := th3.Pick(ds); v != 3 {
		t.Fatalf("thief at the deepest deque picked %d, want runner-up 3", v)
	}
	// All empty: random fallback, never self, spread over victims.
	empty := testDeques(4)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v, _ := th.Pick(empty)
		if v == 0 {
			t.Fatal("empty-fallback picked self")
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Errorf("empty-fallback covered only %d victims, want all 3", len(seen))
	}
}

func TestShardLocalPrefersWindow(t *testing.T) {
	const n = 16
	ds := testDeques(n, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)
	th := StealPolicyByName("shard-local").NewThief(5, n, 1)
	inWindow, wide := 0, 0
	for i := 0; i < 1000; i++ {
		v, _ := th.Pick(ds)
		if v >= 4 && v < 8 {
			inWindow++
		} else {
			wide++
		}
	}
	// 3 of every 4 attempts stay in the window; wide attempts can also land
	// in it by chance, so in-window share must be clearly dominant but wide
	// picks must exist (the diffusion escape hatch).
	if inWindow < 700 {
		t.Errorf("only %d of 1000 picks in the thief's window, want ≥700", inWindow)
	}
	if wide == 0 {
		t.Error("no wide picks at all: work cannot diffuse between windows")
	}
	// A 2-worker domain degenerates to random without self-picks.
	small := testDeques(2, 4, 4)
	thSmall := StealPolicyByName("shard-local").NewThief(0, 2, 1)
	for i := 0; i < 50; i++ {
		if v, _ := thSmall.Pick(small); v != 1 {
			t.Fatalf("2-worker domain picked %d, want 1", v)
		}
	}
}

// TestPickSequencesPinned holds every policy to the victim:amount sequence
// it produced, seed 7, before the four thief types became rows of one table
// over one thief: a rule that drew from its PRNG stream in a different order,
// or once more or less per attempt, moves every schedule that uses it.
func TestPickSequencesPinned(t *testing.T) {
	for _, r := range []struct {
		policy string
		id, n  int
		sizes  []int
		want   string
	}{
		{"random", 1, 5, []int{3, 1, 7, 0, 2}, "2:1 3:1 2:1 0:1 3:1 0:1 3:1 0:1 0:1 4:1 0:1 4:1 0:1 3:1 2:1 4:1 "},
		{"random", 5, 8, nil, "6:1 4:1 1:1 4:1 7:1 7:1 2:1 2:1 7:1 7:1 1:1 7:1 7:1 7:1 2:1 1:1 "},
		{"random", 6, 7, []int{0, 9, 0, 40, 2, 0, 5}, "5:1 2:1 1:1 3:1 3:1 0:1 4:1 5:1 1:1 2:1 2:1 3:1 3:1 3:1 2:1 0:1 "},
		{"steal-half", 1, 5, []int{3, 1, 7, 0, 2}, "2:3 3:1 2:3 0:1 3:1 0:1 3:1 0:1 0:1 4:1 0:1 4:1 0:1 3:1 2:3 4:1 "},
		{"steal-half", 5, 8, nil, "6:1 4:1 1:1 4:1 7:1 7:1 2:1 2:1 7:1 7:1 1:1 7:1 7:1 7:1 2:1 1:1 "},
		{"steal-half", 6, 7, []int{0, 9, 0, 40, 2, 0, 5}, "5:1 2:1 1:4 3:16 3:16 0:1 4:1 5:1 1:4 2:1 2:1 3:16 3:16 3:16 2:1 0:1 "},
		{"richest-first", 1, 5, []int{3, 1, 7, 0, 2}, "2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 2:1 "},
		{"richest-first", 5, 8, nil, "6:1 4:1 1:1 4:1 7:1 7:1 2:1 2:1 7:1 7:1 1:1 7:1 7:1 7:1 2:1 1:1 "},
		{"richest-first", 6, 7, []int{0, 9, 0, 40, 2, 0, 5}, "3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 3:1 "},
		{"shard-local", 1, 5, []int{3, 1, 7, 0, 2}, "0:1 2:1 2:1 0:1 3:1 0:1 2:1 0:1 0:1 3:1 0:1 4:1 0:1 2:1 2:1 4:1 "},
		{"shard-local", 5, 8, nil, "7:1 7:1 4:1 4:1 7:1 7:1 6:1 2:1 7:1 7:1 4:1 7:1 7:1 7:1 6:1 1:1 "},
		{"shard-local", 6, 7, []int{0, 9, 0, 40, 2, 0, 5}, "5:1 4:1 4:1 3:1 5:1 4:1 5:1 5:1 4:1 4:1 4:1 3:1 5:1 5:1 4:1 0:1 "},
	} {
		ds := testDeques(r.n, r.sizes...)
		th := StealPolicyByName(r.policy).NewThief(r.id, r.n, 7)
		var got strings.Builder
		for i := 0; i < 16; i++ {
			v, amount := th.Pick(ds)
			fmt.Fprintf(&got, "%d:%d ", v, amount)
		}
		if got.String() != r.want {
			t.Errorf("%s thief %d of %d over %v:\n got %s\nwant %s", r.policy, r.id, r.n, r.sizes, got.String(), r.want)
		}
	}
}

func TestStealPolicyRegistry(t *testing.T) {
	if !ValidStealPolicy("") {
		t.Error("empty policy name must be valid (the default)")
	}
	for _, name := range StealPolicyNames() {
		if !ValidStealPolicy(name) {
			t.Errorf("listed policy %q reported invalid", name)
		}
	}
	if ValidStealPolicy("round-robin") {
		t.Error("unknown policy reported valid")
	}
	if got := StealPolicyByName("no-such-policy").Name(); got != "random" {
		t.Errorf("unknown policy resolved to %q, want the random fallback", got)
	}
	if got := StealPolicyByName("").Name(); got != "random" {
		t.Errorf("empty policy resolved to %q, want random", got)
	}
}

// BenchmarkVictimPick measures one victim selection per policy — the cost
// the thief loop pays per attempt. The splitmix64 baseline replaced the
// shared Proc.Rand interface call (and its modulo bias); the structural
// policies add Size() scans on top.
func BenchmarkVictimPick(b *testing.B) {
	ds := testDeques(8, 3, 1, 7, 0, 2, 9, 4, 6)
	for _, name := range StealPolicyNames() {
		b.Run(name, func(b *testing.B) {
			th := StealPolicyByName(name).NewThief(0, 8, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				th.Pick(ds)
			}
		})
	}
}
