// Package core implements AdaptiveTC, the paper's adaptive task creation
// strategy for work-stealing scheduling (Section 3) as the five compiled
// code versions of Section 4.2. fast, fast_2 and slow are two configurations
// of the shared spawn loop wsrt.Fast; check and sequence, and the special
// task that links them, are this package's own:
//
//	fast      depth < cutoff: create real tasks (clone the taskprivate
//	          workspace, push the continuation frame); at the cutoff it
//	          falls through to check without pushing anything.
//	check     a fake task: plain recursion that ignores taskprivate but
//	          polls need_task once at entry (the latch in Appendix C).
//	          When the flag is up it creates one special task for the
//	          current node and runs every remaining child through fast_2
//	          with its depth reset to 0, re-pushing the special marker
//	          around each child so thieves can reach the child's tasks.
//	fast_2    like fast with twice the cutoff, falling through to sequence
//	          (not check) beyond it.
//	sequence  a plain recursive function. taskprivate is ignored.
//	slow      the entry point of every stolen task: restores the saved PC,
//	          partial sum and workspace and continues the interrupted spawn
//	          loop in its original flavour.
//
// The cutoff is ⌈log2 N⌉ for N workers. A thief that fails to steal bumps
// the victim's stolen_num; past max_stolen_num (default 20) the victim's
// need_task flag goes up, and a successful steal clears both — the
// signalling of Figure 3(d)/(e), implemented inside internal/deque. On a
// wall-clock platform a thief that has raised the flag on every victim and
// still finds every deque empty parks until a push wakes it
// (internal/wsrt/idle.go); the signalling is the same on every platform.
//
// Special tasks are never stolen and never suspended: at the sync point
// their owner waits (sync_specialtask, wsrt.Worker.JoinSpecial: a sleep-poll
// loop like the paper's usleep(100) loop in Figure 3(c)) because the fake
// task whose state the marker preserves lives on the owner's execution stack
// and could not be resumed by anyone else.
//
// A fake task must cost about a plain call (the paper's Table 2), so this
// package never reads the clock: the need_task poll and the join wait go
// through wsrt.Worker.PollNeedTask and JoinSpecial, which time themselves
// only when Options.Profile asks for the phase breakdown.
package core

import (
	"fmt"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// New returns the AdaptiveTC engine: two configurations of the shared spawn
// loop around this package's check, special and sequence versions.
func New() *wsrt.Strategy {
	return wsrt.NewStrategy("adaptivetc", func(n int, opt sched.Options) wsrt.Engine {
		cut := opt.CutoffFor(n)
		cut2 := cut * opt.Fast2MultiplierOrDefault()
		if cut2 < cut {
			cut2 = cut
		}
		x := &exec{}
		x.fast = wsrt.Fast{Kind: wsrt.KindFast, Cutoff: cut, Below: x.checkNode}
		x.fast2 = wsrt.Fast{Kind: wsrt.KindFast2, Cutoff: cut2, Below: sequenceNode}
		return x
	})
}

type exec struct {
	fast  wsrt.Fast // fast → check transition at depth ⌈log2 N⌉
	fast2 wsrt.Fast // fast_2 → sequence transition at relative depth 2×cutoff
}

// Root implements wsrt.Engine: the root task starts in the fast version at
// depth 0.
func (x *exec) Root(w *wsrt.Worker) (int64, bool) { return x.fast.Root(w) }

// Resume implements wsrt.Engine: the slow version. The frame's kind decides
// which spawn loop the continuation belongs to.
func (x *exec) Resume(w *wsrt.Worker, f *wsrt.Frame) (int64, bool) {
	switch f.Kind {
	case wsrt.KindFast:
		return x.fast.Resume(w, f)
	case wsrt.KindFast2:
		return x.fast2.Resume(w, f)
	default:
		panic(fmt.Sprintf("adaptivetc: resumed frame of kind %d (special tasks cannot be stolen)", f.Kind))
	}
}

// ---------------------------------------------------------------------------
// check version (fake task)

func (x *exec) checkNode(w *wsrt.Worker, ws sched.Workspace, depth int) int64 {
	w.Visit(ws, depth)
	w.Stats.FakeTasks++
	prog := w.Prog()
	if v, term := prog.Terminal(ws, depth); term {
		return v
	}
	// Poll the need_task flag once at entry — the _adpTC_need_task latch of
	// Appendix C. Each recursive checkNode re-reads it at its own entry.
	if !w.PollNeedTask() {
		var sum int64
		n := prog.Moves(ws, depth)
		from := 0 // first attempt not charged yet (sched.Walker.ChargeMoves)
		for m := 0; m < n; m++ {
			if !prog.Apply(ws, depth, m) {
				continue
			}
			w.ChargeMoves(m + 1 - from)
			from = m + 1
			sum += x.checkNode(w, ws, depth+1)
			prog.Undo(ws, depth, m)
		}
		w.ChargeMoves(n - from)
		return sum
	}
	return x.specialNode(w, ws, depth)
}

// specialNode is the need_task branch of the check version: a special task
// is created for the current fake task, pushed around each remaining child,
// and the children run as fast_2 with depth reset to 0 so their subtrees
// re-open for stealing.
func (x *exec) specialNode(w *wsrt.Worker, ws sched.Workspace, depth int) int64 {
	prog := w.Prog()
	w.ChargeTask()
	s := w.NewFrame(nil, ws, depth, depth, wsrt.KindSpecial)
	var sum int64
	anyStolen := false
	n := prog.Moves(ws, depth)
	from := 0
	for m := 0; m < n; m++ {
		if !prog.Apply(ws, depth, m) {
			continue
		}
		w.ChargeMoves(m + 1 - from)
		from = m + 1
		childWS := w.Clone(ws, false) // taskprivate honoured in the special path
		prog.Undo(ws, depth, m)
		s.PC, s.Sum = m+1, sum
		w.Push(s)
		// The child's cutoff-relative depth restarts at 0 so its subtree
		// re-opens for task creation; its tree depth keeps counting.
		v, completed := x.fast2.Node(w, s, childWS, depth+1, 0)
		stolen := w.PopSpecial(s)
		switch {
		case completed && !stolen:
			// Fast.Loop's argument with the marker in place of the frame:
			// nothing was taken over s, and the child's subtree is finished.
			w.Release(childWS)
			sum += v
		case !completed && stolen:
			// The child's task chain was taken over a thief; its total will
			// be deposited into the special frame by the chain's finaliser.
			w.ExpectDeposit(s)
			anyStolen = true
		case completed && stolen:
			panic("adaptivetc: special child completed inline but marked stolen")
		default:
			panic("adaptivetc: special child detached without the marker observing a theft")
		}
	}
	w.ChargeMoves(n - from) // before JoinSpecial, whose sleeps read the clock
	if anyStolen {
		// sync_specialtask: the special task waits for its children — it
		// cannot be suspended, because it preserves the state of a fake
		// task living on this worker's execution stack.
		sum = w.JoinSpecial(s, sum)
	}
	// The marker is out of the deque and every expected deposit has been
	// drained (waited frames are never finalised by depositors), so the
	// special frame is dead and solely ours.
	w.FreeFrame(s)
	return sum
}

// ---------------------------------------------------------------------------
// sequence version

// sequenceNode runs below fast_2's cutoff; every node it visits is a fake
// task.
func sequenceNode(w *wsrt.Worker, ws sched.Workspace, depth int) int64 {
	before := w.Stats.Nodes
	v := w.Sequence(ws, depth)
	w.Stats.FakeTasks += w.Stats.Nodes - before
	return v
}
