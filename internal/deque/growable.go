package deque

// Growable is a THE-protocol deque whose ring doubles instead of
// overflowing — the remedy the paper's related-work section points at
// (Chase & Lev's dynamic circular deque [6]; Michael et al.'s growable
// deques [15]). It is a Deque without a capacity limit: every Deque grows
// its ring on the owner's Push while holding the owner lock, which excludes
// thieves (they steal under the same lock) and cannot race the owner's own
// pops (same thread); a fixed Deque stops at its capacity, a Growable never
// does.
//
// AdaptiveTC itself is "less prone to overflow" because it pushes so few
// tasks; Growable exists so the baselines can run workloads whose spawn
// depth exceeds any fixed capacity, and for the ablation bench comparing
// the two (BenchmarkAblationGrowableDeque).
type Growable = Deque

// NewGrowable returns a deque without a capacity limit whose ring starts as
// every deque's does: the power of two covering initial (at least 8), at
// most 64 slots.
func NewGrowable(initial, maxStolenNum int) *Growable {
	return newDeque(max(initial, 8), noLimit, maxStolenNum)
}
