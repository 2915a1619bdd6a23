package wsrt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"adaptivetc/internal/deque"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/vtime"
)

// stretchParks makes a park unbounded for the length of a test, so that only
// a wake-up can end one: a lost wake-up then hangs the test instead of
// hiding behind the re-probe.
func stretchParks(t *testing.T) {
	old := parkMax
	parkMax = time.Hour
	t.Cleanup(func() { parkMax = old })
}

// parkFixture is a two-worker wall-clock runtime with no goroutines of its
// own: the test plays both the victim (worker 0) and the thief (worker 1).
// Both deques start empty with need_task raised, the state in which a thief
// may park.
func parkFixture() (victim, thief *Worker) {
	deques := []deque.WorkDeque{deque.New(64, 20), deque.New(64, 20)}
	rt := newRuntime(leafProg{}, leafEngine{}, deques, sched.Options{})
	rt.wake = make(chan struct{}, len(deques))
	procs := vtime.NewRealProcs(len(deques), 1)
	ws := make([]*Worker, len(deques))
	for i := range ws {
		deques[i].SetNeedTask(true)
		ws[i] = &Worker{Walker: sched.Walker{Proc: procs[i]}, ID: i, Deque: deques[i], rt: rt}
	}
	return ws[0], ws[1]
}

// checkPaired fails unless every announcement has been withdrawn and every
// token consumed.
func checkPaired(t *testing.T, rt *Runtime) {
	t.Helper()
	if n := rt.sleepers.Load(); n != 0 {
		t.Errorf("sleepers = %d after the thief left, want 0", n)
	}
	if n := len(rt.wake); n != 0 {
		t.Errorf("%d wake token(s) left over, want 0", n)
	}
}

// TestParkPushInsideAnnounceWindow drives the one interleaving the park
// protocol exists for: the victim pushes after the thief announced itself
// and before the thief re-checks the deques. The pusher must see the sleeper
// and pay for a wake-up, the thief must see the entry and stay awake, and
// the token must not outlive the attempt.
func TestParkPushInsideAnnounceWindow(t *testing.T) {
	stretchParks(t)
	victim, thief := parkFixture()
	testAfterAnnounce = func(w *Worker) {
		if w != thief {
			t.Errorf("hook ran for worker %d, want the thief", w.ID)
		}
		victim.Push(victim.NewFrame(nil, unitWS{}, 0, 0, KindFast))
	}
	defer func() { testAfterAnnounce = nil }()

	if thief.park() {
		t.Fatal("thief parked although the victim's deque held an entry at the re-check")
	}
	if thief.Stats.Parks != 0 {
		t.Errorf("Parks = %d, want 0", thief.Stats.Parks)
	}
	if victim.Stats.Wakes != 1 {
		t.Errorf("victim Wakes = %d, want 1: the push saw an announced sleeper", victim.Stats.Wakes)
	}
	checkPaired(t, thief.rt)
}

// TestParkPushBeforeAnnounce is the other side of the window: an entry
// published before the announcement is seen by the re-check, and the pusher,
// who saw no sleeper, sent nothing.
func TestParkPushBeforeAnnounce(t *testing.T) {
	stretchParks(t)
	victim, thief := parkFixture()
	victim.Push(victim.NewFrame(nil, unitWS{}, 0, 0, KindFast))
	if thief.park() {
		t.Fatal("thief parked over a non-empty deque")
	}
	if victim.Stats.Wakes != 0 {
		t.Errorf("victim Wakes = %d, want 0", victim.Stats.Wakes)
	}
	checkPaired(t, thief.rt)
}

// TestParkNeedsNeedTask pins the precondition that keeps the paper's
// signalling intact: a thief does not park beside an empty deque whose owner
// has not been told to create tasks yet.
func TestParkNeedsNeedTask(t *testing.T) {
	stretchParks(t)
	victim, thief := parkFixture()
	victim.Deque.SetNeedTask(false)
	if thief.park() {
		t.Fatal("thief parked before need_task was raised on the victim")
	}
	checkPaired(t, thief.rt)
}

// TestParkedThiefWokenByPushOrCompletion races a push (then a completion)
// against a thief on its way into an unbounded park, many times over. In
// whichever order the two meet, the thief must come out.
func TestParkedThiefWokenByPushOrCompletion(t *testing.T) {
	stretchParks(t)
	for _, wake := range []struct {
		name string
		do   func(victim *Worker)
	}{
		{"push", func(v *Worker) { v.Push(v.NewFrame(nil, unitWS{}, 0, 0, KindFast)) }},
		{"complete", func(v *Worker) { v.rt.complete(1) }},
		{"fail", func(v *Worker) { v.rt.fail(errors.New("boom")) }},
		{"first solution", func(v *Worker) { v.rt.claimSolution(v, 1) }},
	} {
		t.Run(wake.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				victim, thief := parkFixture()
				out := make(chan struct{})
				go func() {
					thief.park()
					close(out)
				}()
				for thief.rt.sleepers.Load() == 0 {
					time.Sleep(10 * time.Microsecond)
				}
				if i%2 == 1 {
					time.Sleep(200 * time.Microsecond) // let the thief reach the select
				}
				wake.do(victim)
				select {
				case <-out:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: the wake-up was lost, the thief is still parked", i)
				}
				checkPaired(t, thief.rt)
			}
		})
	}
}

// trickleEngine is one producer against N-1 thieves: the root worker pushes
// one unstarted child at a time, at seeded intervals long enough for the
// thieves to park in between, and waits for a thief to take it. With parks
// unbounded, a frame that nobody comes for is a lost wake-up.
type trickleEngine struct {
	gaps  []time.Duration
	stuck chan int // receives the index of a frame that was never taken
}

func (e *trickleEngine) Root(w *Worker) (int64, bool) {
	ws := w.Prog().Root()
	root := w.NewFrame(nil, ws, 0, 0, KindFast)
	for i, gap := range e.gaps {
		time.Sleep(gap)
		w.Push(w.NewFrame(root, ws, 1, 1, KindChild))
		deadline := time.Now().Add(10 * time.Second)
		for w.Deque.Size() != 0 {
			if time.Now().After(deadline) {
				e.stuck <- i
				panic(sched.Abort{Err: errors.New("trickle: frame never taken")})
			}
			time.Sleep(5 * time.Microsecond)
		}
		// Size reads H without the lock, and a thief moves H before OnStolen
		// registers the deposit it owes root. A failed Pop takes the lock, so
		// that registration is ordered before root's Sync, as in an engine.
		if _, ok := w.Deque.Pop(); ok {
			panic("trickle: popped a frame a thief had taken")
		}
	}
	return w.Sync(root, 0)
}

func (e *trickleEngine) Resume(w *Worker, f *Frame) (int64, bool) {
	f.Start()
	return 1, true
}

// TestNoLostWakeupStress is the lost-wake-up stress: every frame the
// producer pushes must be stolen by a thief that a Push woke, and the run
// must end with every frame's value delivered.
func TestNoLostWakeupStress(t *testing.T) {
	stretchParks(t)
	const workers, frames = 4, 150
	rng := rand.New(rand.NewSource(20100424))
	eng := &trickleEngine{gaps: make([]time.Duration, frames), stuck: make(chan int, 1)}
	for i := range eng.gaps {
		switch rng.Intn(4) {
		case 0: // back to back: the last thief is still awake
		case 1:
			eng.gaps[i] = time.Duration(rng.Intn(50)) * time.Microsecond
		default: // long enough for every thief to park again
			eng.gaps[i] = time.Duration(200+rng.Intn(600)) * time.Microsecond
		}
	}
	res, err := Run(leafProg{}, sched.Options{Workers: workers, Platform: &vtime.Real{Seed: 1}}, eng, "trickle")
	select {
	case i := <-eng.stuck:
		t.Fatalf("frame %d was pushed and never stolen: lost wake-up", i)
	default:
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != frames {
		t.Errorf("value = %d, want %d: one per frame", res.Value, frames)
	}
	if res.Stats.Steals != frames {
		t.Errorf("Steals = %d, want %d: the producer never pops", res.Stats.Steals, frames)
	}
	if res.Stats.Parks == 0 || res.Stats.Wakes == 0 {
		t.Errorf("Parks = %d, Wakes = %d: the thieves never parked between frames", res.Stats.Parks, res.Stats.Wakes)
	}
	if res.Stats.Wakes > frames {
		t.Errorf("Wakes = %d for %d pushes: a push pays for at most one wake-up", res.Stats.Wakes, frames)
	}
}

// gateEngine holds a job still with every thief parked: the root worker
// waits until all other workers of its runtime have announced themselves,
// reports that on parked, and runs act once release is closed.
type gateEngine struct {
	parked  chan struct{}
	release chan struct{}
	act     func(w *Worker) (int64, bool)
}

func newGate(act func(w *Worker) (int64, bool)) *gateEngine {
	return &gateEngine{parked: make(chan struct{}), release: make(chan struct{}), act: act}
}

func (g *gateEngine) Name() string                      { return "gate" }
func (g *gateEngine) NewExec(int, sched.Options) Engine { return g }

func (g *gateEngine) Root(w *Worker) (int64, bool) {
	for int(w.rt.sleepers.Load()) != w.rt.N-1 {
		time.Sleep(20 * time.Microsecond)
	}
	close(g.parked)
	<-g.release
	return g.act(w)
}

func (g *gateEngine) Resume(*Worker, *Frame) (int64, bool) {
	panic("gateEngine: nothing is ever pushed, so nothing can be resumed")
}

// wakeBound is how soon a parked thief must be gone after the event that
// ends its job.
const wakeBound = 5 * time.Millisecond

// withinWakeBound runs attempt up to ten times and fails unless one of them
// reports a latency inside wakeBound: the bound is about the protocol (a
// wake-up, or one re-probe period), not about what a loaded two-core host
// adds on a bad day. A protocol error shows as a hang or as every attempt
// missing.
func withinWakeBound(t *testing.T, attempt func() time.Duration) {
	t.Helper()
	var seen []time.Duration
	for i := 0; i < 10; i++ {
		d := attempt()
		if d <= wakeBound {
			return
		}
		seen = append(seen, d)
	}
	t.Errorf("parked thieves took %v to leave, want within %v", seen, wakeBound)
}

const gateWorkers = 3

// TestParkedThiefSeesContextCancel: nobody wakes a thief for a cancelled
// context — the busy worker here never reaches a poll point — so the bounded
// park has to: the thief re-probes within parkMax and aborts the job.
func TestParkedThiefSeesContextCancel(t *testing.T) {
	withinWakeBound(t, func() time.Duration {
		var aborted time.Time
		gate := newGate(func(w *Worker) (int64, bool) {
			for !w.rt.done.Load() {
				time.Sleep(20 * time.Microsecond)
			}
			aborted = time.Now()
			return 0, false
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			_, err := Run(leafProg{}, sched.Options{Workers: gateWorkers, Platform: &vtime.Real{Seed: 1}, Ctx: ctx}, gate, "gate")
			errc <- err
		}()
		<-gate.parked
		close(gate.release)
		cancelled := time.Now()
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		return aborted.Sub(cancelled)
	})
}

// gatedPoolJob submits a gate job to a fresh pool and returns once its
// thieves are parked.
func gatedPoolJob(t *testing.T, gate *gateEngine, spec JobSpec) (*Pool, *JobHandle) {
	t.Helper()
	p := NewPool(PoolConfig{Workers: gateWorkers})
	spec.Prog, spec.Engine = leafProg{}, gate
	h, err := p.Submit(spec)
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	<-gate.parked
	return p, h
}

// TestParkedThievesWokenByPanic: a co-worker's panic fails the job and must
// get every parked thief of the shard out, or the quarantine would wait a
// park out. Parks are unbounded here, so only the wake-up can do it.
func TestParkedThievesWokenByPanic(t *testing.T) {
	stretchParks(t)
	withinWakeBound(t, func() time.Duration {
		gate := newGate(func(*Worker) (int64, bool) { panic("boom") })
		p, h := gatedPoolJob(t, gate, JobSpec{})
		defer p.Close()
		start := time.Now()
		close(gate.release)
		if _, err := h.Result(); !errors.Is(err, ErrJobPanicked) {
			t.Fatalf("err = %v, want ErrJobPanicked", err)
		}
		return time.Since(start)
	})
}

// TestParkedThievesWokenByFirstSolution: the claim ends the job for everyone.
func TestParkedThievesWokenByFirstSolution(t *testing.T) {
	stretchParks(t)
	withinWakeBound(t, func() time.Duration {
		gate := newGate(func(w *Worker) (int64, bool) {
			v, _ := w.Prog().Terminal(w.Prog().Root(), 0) // claims, then unwinds
			return v, true
		})
		p, h := gatedPoolJob(t, gate, JobSpec{FirstSolution: true})
		defer p.Close()
		start := time.Now()
		close(gate.release)
		res, err := h.Result()
		if err != nil || res.Value != 7 {
			t.Fatalf("value = %d, err = %v, want the claimed leaf value 7", res.Value, err)
		}
		return time.Since(start)
	})
}

// TestPoolCloseWithParkedWorkers: Close waits for the running job, and the
// job's completion must release the workers parked inside it.
func TestPoolCloseWithParkedWorkers(t *testing.T) {
	stretchParks(t)
	withinWakeBound(t, func() time.Duration {
		gate := newGate(func(*Worker) (int64, bool) { return 7, true })
		p, h := gatedPoolJob(t, gate, JobSpec{})
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while a job was running")
		case <-time.After(2 * time.Millisecond):
		}
		start := time.Now()
		close(gate.release)
		<-closed
		if res, err := h.Result(); err != nil || res.Value != 7 {
			t.Fatalf("value = %d, err = %v, want 7", res.Value, err)
		}
		return time.Since(start)
	})
}
