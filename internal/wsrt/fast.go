package wsrt

import "adaptivetc/internal/sched"

// Fast is the paper's fast version — the spawn loop that creates a real task
// at every spawn — written once. The engines built on this package are
// configurations of it (strategy.go holds the four that are nothing more),
// the way the paper defines fast_2 as "like fast but with twice the cutoff":
//
//	Cilk               {KindFast}
//	Cilk-SYNCHED       {KindFast, Pooled}
//	cut-off baselines  {KindFast, cut, Below: plain recursion}
//	AdaptiveTC fast    {KindFast, ⌈log2 N⌉, Below: the check version}
//	AdaptiveTC fast_2  {KindFast2, 2×cutoff, Below: the sequence version}
//
// A Fast is itself a wsrt.Engine (Root starts the root task at depth 0,
// Resume is the slow version of its own frames); an engine that mixes two
// of them dispatches Resume on Frame.Kind.
type Fast struct {
	// Kind stamps the frames this version creates, so that the slow version
	// can tell which Fast a stolen continuation belongs to.
	Kind Kind
	// Cutoff and Below end task creation: a node whose cutoff-relative depth
	// has reached Cutoff is handed to Below, which must run its whole
	// subtree inline and return its value — it never detaches. A nil Below
	// means no cutoff: every node is a task (Cilk).
	Cutoff int
	Below  func(w *Worker, ws sched.Workspace, depth int) int64
	// Pooled selects the Cilk-SYNCHED copy charge (Costs.PooledBase instead
	// of Costs.CopyBase) and nothing else: where the memory comes from is
	// the runtime's business and the same for every Fast (Worker.Clone).
	Pooled bool
}

// Root implements Engine.
func (k *Fast) Root(w *Worker) (int64, bool) {
	return k.Node(w, nil, w.Prog().Root(), 0, 0)
}

// Resume implements Engine: the slow version restores the saved PC and
// partial sum and continues the spawn loop.
func (k *Fast) Resume(w *Worker, f *Frame) (int64, bool) {
	return k.Loop(w, f, f.PC, f.Sum)
}

// Node executes the node at tree depth `depth` and cutoff-relative depth rel
// as one task. A task is charged at entry, for leaves too (Appendix B
// allocates the task_info before the terminal test); the Frame itself is
// only materialised when the node actually spawns.
func (k *Fast) Node(w *Worker, parent *Frame, ws sched.Workspace, depth, rel int) (int64, bool) {
	if k.Below != nil && rel >= k.Cutoff {
		return k.Below(w, ws, depth), true
	}
	w.BeginNode(ws, depth)
	w.ChargeTask()
	if v, term := w.Prog().Terminal(ws, depth); term {
		return v, true
	}
	f := w.NewFrame(parent, ws, depth, rel, k.Kind)
	v, completed := k.Loop(w, f, 0, 0)
	if completed {
		// Completed inline: never stolen at the end, nothing pending — the
		// frame is dead and this worker is its sole owner.
		w.FreeFrame(f)
	}
	return v, completed
}

// Loop runs f's spawn loop from move pc with the given partial sum. It
// returns (value, completed); completed==false means the computation
// detached (f was stolen, or f suspended at its sync point).
//
// Everything the loop needs of f besides the continuation it saves is read
// into locals before the first Push. From that Push on f is visible to
// thieves, and once one of them has resumed it the frame can be finalised,
// freed and reused for another task on another worker, so any later read of
// f.WS, f.Depth or f.Rel would race a recycler's reset — the class of bug
// Push's own read of the trace identity guards against.
func (k *Fast) Loop(w *Worker, f *Frame, pc int, sum int64) (int64, bool) {
	prog := w.Prog()
	ws, depth, rel := f.WS, f.Depth, f.Rel
	n := prog.Moves(ws, depth)
	from := pc // first attempt not charged yet (sched.Walker.ChargeMoves)
	for m := pc; m < n; m++ {
		if !prog.Apply(ws, depth, m) {
			continue
		}
		w.ChargeMoves(m + 1 - from)
		from = m + 1
		childWS := w.Clone(ws, k.Pooled) // taskprivate
		prog.Undo(ws, depth, m)
		f.PC, f.Sum = m+1, sum
		w.Push(f)
		v, completed := k.Node(w, f, childWS, depth+1, rel+1)
		if !completed {
			// The child subtree detached, which means frames below it in
			// the deque — ours included — were stolen first. Do not pop,
			// do not deposit: the child's own finaliser will deliver to f.
			return 0, false
		}
		// The paper's free(). childWS was cloned by this worker and handed
		// only to the child, so anyone still able to read it got it from a
		// frame at or below the child. The child completed inline: each such
		// frame was popped by this worker, never stolen (a stolen frame
		// fails its owner's Pop or suspends at its Sync, and either detaches
		// the whole subtree), and every special task Below started joined its
		// stolen children — which run on clones of their own — before it
		// returned. So the last reference is ours, whether or not f itself
		// was stolen meanwhile: its thief works on f.WS, never on childWS.
		w.Release(childWS)
		if _, ok := w.Pop(); !ok {
			// f was stolen while the child ran: the thief resumes the
			// continuation from f.PC; we hand it the in-flight child value.
			w.Deposit(f, v)
			return 0, false
		}
		sum += v
	}
	w.ChargeMoves(n - from)
	if pc == 0 {
		// Cilk-5's fast clone. Node entered f at its first move and every
		// Pop since found it, so no thief ever took f: no deposit was
		// registered on it and none can arrive, and sum is its total. Only a
		// resumed frame (pc > 0) was stolen and may still owe deposits.
		return sum, true
	}
	return w.Sync(f, sum)
}

// sequenceCopying is the library cut-off's sequential recursion: still one
// allocate-and-copy per child, because a library cut-off cannot know the
// workspace could be shared and undone.
func (w *Worker) sequenceCopying(ws sched.Workspace, depth int) int64 {
	w.BeginNode(ws, depth)
	prog := w.Prog()
	if v, term := prog.Terminal(ws, depth); term {
		return v
	}
	var sum int64
	n := prog.Moves(ws, depth)
	from := 0
	for m := 0; m < n; m++ {
		if !prog.Apply(ws, depth, m) {
			continue
		}
		w.ChargeMoves(m + 1 - from)
		from = m + 1
		childWS := w.Clone(ws, false)
		prog.Undo(ws, depth, m)
		sum += w.sequenceCopying(childWS, depth+1)
		w.Release(childWS) // plain recursion: nothing below ever left this stack
	}
	w.ChargeMoves(n - from)
	return sum
}
