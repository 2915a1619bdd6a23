// Package tascell implements the Tascell baseline (Hiraishi et al., PPoPP
// 2009) as this paper describes it: tasks live on the worker's execution
// stack, not in a deque. An idle thread sends a request to a busy victim;
// the victim, at its next poll, *temporarily backtracks* — it undoes the
// moves along its spine of nested calls up to the oldest level that still
// has untried iterations, clones the workspace there (the only point where
// Tascell ever copies a workspace), packages half of the remaining
// iterations as a task for the requester, restores its state by re-applying
// the undone moves, and resumes. Because a level's state lives in stack
// frames, a level that reaches its join with stolen children outstanding
// cannot be suspended: the worker waits, answering further requests while
// it does — this wait_children time is exactly what Figure 7 and the
// left/right-heavy asymmetry of Figure 10 measure.
//
// The halving rule ("In Tascell, a parallel-for loop construct is
// implemented by spawning a half of the tasks for the requested threads",
// §5.3.2) is what makes right-heavy trees painful: the victim keeps the
// early iterations and gives away the late ones, so when the heavy subtree
// is last the victim finishes its light half quickly and then waits.
package tascell

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/vtime"
)

// Engine is the Tascell baseline scheduler.
type Engine struct {
	single bool
}

// New returns a Tascell engine with the paper's parallel-for extraction
// rule: a victim gives away half of a level's remaining iterations.
func New() *Engine { return &Engine{} }

// NewSingle returns a Tascell variant that extracts exactly one iteration
// per request — the plain-recursion rule the paper's §1 describes
// ("creates a task for the requesting thread"). Used by the extraction
// granularity ablation bench.
func NewSingle() *Engine { return &Engine{single: true} }

// Name implements sched.Engine.
func (e *Engine) Name() string {
	if e.single {
		return "tascell-single"
	}
	return "tascell"
}

// Run implements sched.Engine; it ignores Options.FirstSolution. A worker's
// panic fails the run by sched.Recovered's rule; one that is not a
// sched.Abort is raised again from Run.
func (e *Engine) Run(p sched.Program, opt sched.Options) (sched.Result, error) {
	n := opt.WorkersOrDefault()
	rt := &runtime{
		costs:   sched.DefaultCosts(),
		n:       n,
		single:  e.single,
		mail:    make([]chan *request, n),
		pending: make([]atomic.Int64, n),
		profile: opt.Profile,
		stop:    &sched.Stop{},
	}
	for i := range rt.mail {
		rt.mail[i] = make(chan *request, n)
	}
	defer sched.WatchContext(opt.Ctx, rt.stop)()
	workers := make([]*tworker, n)
	makespan := opt.PlatformOrDefault().Run(n, func(proc vtime.Proc) {
		tw := &tworker{Walker: sched.Walker{Proc: proc, ID: proc.ID()}, rt: rt}
		tw.Start(p, &rt.costs, rt.stop, opt.Faults.Worker(tw.ID))
		workers[tw.ID] = tw
		start := proc.Now()
		defer func() {
			tw.Stats.WorkerTime += proc.Now() - start
			sched.Recovered(recover(), rt.fail, true)
		}()
		if tw.ID == 0 {
			v := tw.exec(p.Root(), 0)
			rt.value.Store(v)
			rt.done.Store(true)
		}
		tw.idleLoop()
	})
	var st sched.Stats
	for _, tw := range workers {
		if tw != nil {
			st.Add(tw.Stats)
		}
	}
	if opt.Profile {
		st.DeriveWorkTime()
	}
	res := sched.Result{
		Value:    rt.value.Load(),
		Makespan: makespan,
		Workers:  n,
		Engine:   e.Name(),
		Program:  p.Name(),
		Stats:    st,
	}
	if f := rt.failure.Load(); f != nil {
		return res, *f
	}
	return res, nil
}

type runtime struct {
	costs   sched.Costs
	n       int
	single  bool // extract one iteration per request instead of half
	mail    []chan *request
	pending []atomic.Int64 // requests in flight per victim mailbox
	profile bool
	stop    *sched.Stop
	done    atomic.Bool
	value   atomic.Int64
	failure atomic.Pointer[error]
}

// fail records err as the run's failure (the first wins) and fires the stop
// flag that the join and reply waits poll, so no worker waits forever.
func (rt *runtime) fail(err error) {
	rt.failure.CompareAndSwap(nil, &err)
	rt.done.Store(true)
	rt.stop.Signal(err)
}

// request is an idle thread's plea for work. The victim replies with a task
// or nil ("nothing to give").
type request struct {
	reply chan *task
}

// task is a range of iterations [mStart, mEnd) of the node at depth,
// executed on a private clone of the victim's backtracked workspace. Its
// total is delivered to the victim's join for that level.
type task struct {
	ws           sched.Workspace
	depth        int
	mStart, mEnd int
	join         *join
}

// join counts a level's stolen children and accumulates their results.
type join struct {
	mu          sync.Mutex
	outstanding int
	sum         int64
}

func (j *join) addChild() {
	j.mu.Lock()
	j.outstanding++
	j.mu.Unlock()
}

func (j *join) deposit(v int64) {
	j.mu.Lock()
	j.sum += v
	j.outstanding--
	j.mu.Unlock()
}

func (j *join) drained() (int64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.outstanding > 0 {
		return 0, false
	}
	return j.sum, true
}

// level is one frame of the spine: the state of the move loop of one node
// of the current task's recursion. The spine is a slab of levels, reused
// from node to node; growth moves it, so a level is held by its index and
// re-indexed after every child.
type level struct {
	depth   int
	m       int // current candidate index; -1 before the loop starts
	limit   int // exclusive end of this level's iterations (shrunk by theft)
	inChild bool
	join    *join
}

// tworker is one Tascell thread. Its Walker visits nodes and gates the clock;
// levelLoop charges its moves, taxed, through the Walker's Advance.
type tworker struct {
	sched.Walker
	rt *runtime

	ws    sched.Workspace // workspace of the task being executed
	spine []level
}

// exec runs the node reached by tw.ws at depth and returns its subtree
// value. Note tw.ws aliases ws; the field exists so respond can backtrack.
func (tw *tworker) exec(ws sched.Workspace, depth int) int64 {
	tw.ws = ws
	prog := tw.Prog()
	tw.Visit(ws, depth)
	tw.nodeTick()
	if v, term := prog.Terminal(ws, depth); term {
		return v
	}
	return tw.pushLevel(level{depth: depth, m: -1, limit: prog.Moves(ws, depth)}, 0)
}

// pushLevel runs lvl from mStart on top of the spine and pops it.
func (tw *tworker) pushLevel(lvl level, mStart int) int64 {
	tw.spine = append(tw.spine, lvl)
	sum := tw.levelLoop(len(tw.spine)-1, mStart)
	tw.spine = tw.spine[:len(tw.spine)-1]
	return sum
}

// levelLoop runs the iterations of spine level i from mStart, joining
// stolen children at the end. The limit is re-read every iteration because
// respond may shrink it while we are deep in a child, and the level is
// re-indexed after every child because the child's levels may have grown
// the slab.
func (tw *tworker) levelLoop(i int, mStart int) int64 {
	prog := tw.Prog()
	c := &tw.rt.costs
	var sum int64
	moveCost := c.Move
	var nestedPerMove int64
	if tw.ws.Bytes() > 0 {
		// Tascell's sequential code keeps the workspace reachable for
		// backtracking, which taxes every workspace access a little.
		moveCost += c.TascellMove
		nestedPerMove = c.TascellMove
	}
	// Moves are charged as in sched.Walker.ChargeMoves: from is the first
	// attempt not charged yet. respond may shrink the limit while a child
	// runs, but never below the attempt after that child's move, which is
	// from, so the final charge is never negative.
	from := mStart
	charge := func(k int) {
		if k <= 0 {
			return
		}
		tw.Advance(int64(k) * moveCost)
		if tw.rt.profile {
			// The workspace-reachability tax is part of the "nested
			// function management" bar of the paper's Figure 6.
			tw.Stats.DequeTime += int64(k) * nestedPerMove
		}
	}
	depth := tw.spine[i].depth
	for mm := mStart; mm < tw.spine[i].limit; mm++ {
		tw.spine[i].m = mm
		if !prog.Apply(tw.ws, depth, mm) {
			continue
		}
		charge(mm + 1 - from)
		from = mm + 1
		tw.spine[i].inChild = true
		sum += tw.exec(tw.ws, depth+1)
		tw.spine[i].inChild = false
		prog.Undo(tw.ws, depth, mm)
	}
	lvl := &tw.spine[i] // no child runs from here on
	charge(lvl.limit - from)
	lvl.m = lvl.limit
	if lvl.join != nil {
		sum += tw.waitJoin(lvl.join)
	}
	return sum
}

// nodeTick is the per-node bookkeeping: the (cheap) nested-function
// overhead and the polling-flag check at every function entry. The mailbox
// itself is only drained when the flag says a request is actually waiting,
// so the common case costs a single load, as in Tascell's generated code.
func (tw *tworker) nodeTick() {
	c := &tw.rt.costs
	tw.Advance(c.NestedCall + c.Poll)
	tw.Stats.Polls++
	if tw.rt.profile {
		tw.Stats.DequeTime += c.NestedCall
		tw.Stats.PollTime += c.Poll
	}
	if tw.rt.pending[tw.ID].Load() == 0 {
		return
	}
	t0 := tw.now()
	tw.drainRequests(true)
	if tw.rt.profile {
		tw.Stats.PollTime += tw.Proc.Now() - t0
	}
}

// drainRequests answers every pending request; when canGive is false (the
// worker is idle) every requester is turned away.
func (tw *tworker) drainRequests(canGive bool) {
	for {
		select {
		case req := <-tw.rt.mail[tw.ID]:
			tw.rt.pending[tw.ID].Add(-1)
			if canGive {
				tw.respond(req)
			} else {
				req.reply <- nil
			}
		default:
			return
		}
	}
}

// respond implements Tascell's backtracking task creation: find the oldest
// spine level with untried iterations, temporarily undo the moves above it,
// clone the workspace, hand half of the remaining iterations to the
// requester, and restore.
func (tw *tworker) respond(req *request) {
	prog := tw.Prog()
	c := &tw.rt.costs
	victim := -1
	for i := range tw.spine {
		if lvl := &tw.spine[i]; lvl.m+1 < lvl.limit {
			victim = i
			break
		}
	}
	if victim < 0 {
		req.reply <- nil
		return
	}
	t0 := tw.now()
	tw.Advance(c.Respond)
	// Temporary backtracking: undo from the deepest level down to the
	// chosen one, inclusive.
	for i := len(tw.spine) - 1; i >= victim; i-- {
		if lvl := &tw.spine[i]; lvl.inChild {
			prog.Undo(tw.ws, lvl.depth, lvl.m)
		}
	}
	lvl := &tw.spine[victim] // respond never grows the spine
	if b := tw.ws.Bytes(); b > 0 {
		tw.Advance(c.CopyBase + int64(b)/c.CopyBytesPerNs)
		tw.Stats.WorkspaceCopies++
		tw.Stats.WorkspaceBytes += int64(b)
	}
	clone := tw.ws.Clone() // not recycled: the clone leaves with the thief
	remaining := lvl.limit - (lvl.m + 1)
	keep := remaining / 2
	if tw.rt.single {
		keep = remaining - 1 // give exactly the last iteration away
	}
	split := lvl.m + 1 + keep
	if lvl.join == nil {
		lvl.join = &join{}
	}
	lvl.join.addChild()
	t := &task{ws: clone, depth: lvl.depth, mStart: split, mEnd: lvl.limit, join: lvl.join}
	lvl.limit = split
	// Restore: re-apply the undone moves from the chosen level back down.
	for i := victim; i < len(tw.spine); i++ {
		if l := &tw.spine[i]; l.inChild {
			if !prog.Apply(tw.ws, l.depth, l.m) {
				panic(fmt.Sprintf("tascell: re-applying move %d at depth %d failed during restore", l.m, l.depth))
			}
		}
	}
	tw.Stats.Requests++
	if tw.rt.profile {
		tw.Stats.RespondTime += tw.Proc.Now() - t0
	}
	req.reply <- t
}

// waitJoin is the non-suspendable join: the worker waits for its stolen
// children, answering requests from other levels of its spine meanwhile.
func (tw *tworker) waitJoin(j *join) int64 {
	c := &tw.rt.costs
	for {
		if v, done := j.drained(); done {
			return v
		}
		tw.rt.stop.Check()
		tw.drainRequests(true)
		// Account the sleep tick itself, not the whole wall span: respond
		// time spent answering requests mid-wait is tallied separately.
		if tw.rt.profile {
			tw.Stats.WaitTime += c.WaitTick
		}
		tw.Proc.Sleep(c.WaitTick)
	}
}

// idleLoop requests work from random victims until the run completes.
func (tw *tworker) idleLoop() {
	rt := tw.rt
	c := &rt.costs
	for !rt.done.Load() {
		rt.stop.Check()
		tw.drainRequests(false)
		if rt.n == 1 {
			tw.Proc.Sleep(c.WaitTick)
			continue
		}
		victim := tw.Proc.Rand().Intn(rt.n - 1)
		if victim >= tw.ID {
			victim++
		}
		t0 := tw.now()
		tw.Advance(c.Steal)
		req := &request{reply: make(chan *task, 1)}
		rt.pending[victim].Add(1)
		rt.mail[victim] <- req
	awaitReply:
		for {
			select {
			case t := <-req.reply:
				if tw.rt.profile {
					tw.Stats.StealTime += tw.Proc.Now() - t0
				}
				if t == nil {
					tw.Stats.StealFails++
					break awaitReply
				}
				tw.Stats.Steals++
				tw.runTask(t)
				break awaitReply
			default:
			}
			if rt.done.Load() {
				return
			}
			rt.stop.Check()
			tw.drainRequests(false)
			tw.Proc.Sleep(c.WaitTick)
		}
	}
}

// runTask executes a stolen iteration range and deposits its total.
func (tw *tworker) runTask(t *task) {
	tw.ws = t.ws
	t.join.deposit(tw.pushLevel(level{depth: t.depth, m: t.mStart - 1, limit: t.mEnd}, t.mStart))
}

func (tw *tworker) now() int64 {
	if tw.rt.profile {
		return tw.Proc.Now()
	}
	return 0
}
