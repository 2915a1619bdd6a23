package deque

// Growable is a THE-protocol deque whose buffer doubles instead of
// overflowing — the remedy the paper's related-work section points at
// (Chase & Lev's dynamic circular deque [6]; Michael et al.'s growable
// deques [15]). The protocol is unchanged, so everything but Push is the
// embedded Deque's: growth happens on the owner's Push while holding the
// owner lock, which excludes thieves (they steal under the same lock) and
// cannot race the owner's own pops (same thread).
//
// AdaptiveTC itself is "less prone to overflow" because it pushes so few
// tasks; Growable exists so the baselines can run workloads whose spawn
// depth exceeds any fixed capacity, and for the ablation bench comparing
// the two (BenchmarkAblationGrowableDeque).
type Growable struct {
	*Deque
}

// NewGrowable returns a growable deque with the given initial capacity.
func NewGrowable(initial, maxStolenNum int) *Growable {
	if initial < 8 {
		initial = 8
	}
	return &Growable{New(initial, maxStolenNum)}
}

// Push appends e, doubling the buffer when full. It never reports
// overflow.
func (g *Growable) Push(e Entry) bool {
	if g.Deque.Push(e) {
		return true
	}
	g.mu.Lock()
	g.growLocked()
	g.mu.Unlock()
	if !g.Deque.Push(e) {
		panic("deque: push failed immediately after growth")
	}
	return true
}
