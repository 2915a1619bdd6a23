// Tests for the lifecycle owner: the one transition step and its gauge
// table, checked against a census of the job records themselves, and feed,
// which must never find the pool's staging slot full.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// gaugeSet is every lifecycle gauge the service keeps.
type gaugeSet struct {
	waiting, inflight, forwarded int64
	tenantQueued                 map[string]int64
	tenantRunning                map[string]int64
	tenantInflight               map[string]int64
	classQueued                  map[Priority]int64
	classRunning                 map[Priority]int64
}

func newGaugeSet() gaugeSet {
	return gaugeSet{
		tenantQueued: map[string]int64{}, tenantRunning: map[string]int64{}, tenantInflight: map[string]int64{},
		classQueued: map[Priority]int64{}, classRunning: map[Priority]int64{},
	}
}

func (g gaugeSet) String() string {
	return fmt.Sprintf("waiting=%d inflight=%d forwarded=%d tenant{q=%v r=%v in=%v} class{q=%v r=%v}",
		g.waiting, g.inflight, g.forwarded, g.tenantQueued, g.tenantRunning, g.tenantInflight, g.classQueued, g.classRunning)
}

// censusAndGauges counts the job records by state and reads the gauges at
// one instant: a transition moves state and gauges together under job.mu,
// and a record is registered under s.mu, so holding all of them leaves no
// step half done. Zero entries are dropped so the two sides compare equal.
func censusAndGauges(s *Service) (census, gauges gaugeSet) {
	census, gauges = newGaugeSet(), newGaugeSet()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			census.waiting++
			census.tenantQueued[j.tenant]++
			census.classQueued[j.prio]++
		case StateRunning:
			census.tenantRunning[j.tenant]++
			census.classRunning[j.prio]++
		case StateForwarded:
			census.forwarded++
		default:
			continue
		}
		census.inflight++
		census.tenantInflight[j.tenant]++
	}
	gauges.waiting, gauges.inflight, gauges.forwarded = s.waiting.Load(), s.inflight.Load(), s.forwardedNow.Load()
	s.tenantsMu.Lock()
	for name, ts := range s.tenants {
		setNonZero(gauges.tenantQueued, name, ts.queued.Load())
		setNonZero(gauges.tenantRunning, name, ts.running.Load())
		setNonZero(gauges.tenantInflight, name, ts.inflight.Load())
	}
	s.tenantsMu.Unlock()
	for p, cls := range s.classes {
		setNonZero(gauges.classQueued, p, cls.queued.Load())
		setNonZero(gauges.classRunning, p, cls.running.Load())
	}
	return census, gauges
}

func setNonZero[K comparable](m map[K]int64, k K, v int64) {
	if v != 0 {
		m[k] = v
	}
}

// remoteOutcome is what a fake peer eventually answers.
type remoteOutcome struct {
	res sched.Result
	err error
}

// fakeWait is a Forwarded.Wait the test resolves by hand; like the real
// one it gives up with the context's cause.
func fakeWait(ch <-chan remoteOutcome) func(context.Context) (sched.Result, error) {
	return func(ctx context.Context) (sched.Result, error) {
		select {
		case o := <-ch:
			return o.res, o.err
		case <-ctx.Done():
			return sched.Result{}, context.Cause(ctx)
		}
	}
}

// TestLifecycleCensus drives a seeded random schedule of every way a job
// can enter, move and leave — submit, cancel, deadline, extract then requeue
// or place, forward-on-full, forwarded-in, a peer answering, Close — and
// after every step requires each gauge to equal a census of the job
// records. At the end nothing may be left counted anywhere, every admitted
// job must have settled exactly once, and the service-wide outcome counts
// must be the class sums.
func TestLifecycleCensus(t *testing.T) {
	for _, seed := range []int64{1, 20100424} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { lifecycleCensus(t, seed) })
	}
}

func lifecycleCensus(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := New(Config{Workers: 2, MaxConcurrentJobs: 2, QueueCapacity: 6, RetainJobs: 32,
		Tenants: map[string]TenantLimits{"capped": {MaxInFlight: 3}}})
	defer s.Close()

	var (
		jobs     []*Job
		admitted int64
		pending  []chan remoteOutcome // fake peers that have not answered yet
	)
	newPeer := func() *Forwarded {
		ch := make(chan remoteOutcome, 1)
		pending = append(pending, ch)
		return &Forwarded{Node: "http://peer", JobID: fmt.Sprint("r", len(pending)), Wait: fakeWait(ch)}
	}
	// Submit calls the forwarder on the test's own goroutine, so it may
	// share rng and pending.
	s.SetForwarder(func(Request) (*Forwarded, error) {
		if rng.Intn(3) == 0 {
			return nil, errors.New("no colder peer")
		}
		return newPeer(), nil
	})
	request := func() Request {
		req := Request{
			Program:  "fib",
			N:        8 + rng.Intn(8),
			Tenant:   []string{"", "acme", "capped"}[rng.Intn(3)],
			Priority: []string{"", "interactive", "background"}[rng.Intn(3)],
		}
		switch rng.Intn(6) {
		case 0:
			req.Program, req.N, req.TimeoutMS = "nqueens-array", 12, 1 // dies by its deadline
		case 1:
			req.Program, req.N = "nqueens-array", 9
		}
		return req
	}
	check := func(step int, what string) {
		t.Helper()
		census, gauges := censusAndGauges(s)
		if census.String() != gauges.String() {
			t.Fatalf("step %d (%s): gauges disagree with the job records\n census %v\n gauges %v", step, what, census, gauges)
		}
	}

	for step := 0; step < 400; step++ {
		var what string
		switch rng.Intn(8) {
		case 0, 1, 2:
			what = "submit"
			if j, err := s.Submit(request()); err == nil {
				jobs = append(jobs, j)
				admitted++
			}
		case 3:
			what = "forwarded-in"
			if j, err := s.SubmitForwarded(request(), "http://origin", 1+rng.Intn(2)); err == nil {
				jobs = append(jobs, j)
				admitted++
			}
		case 4:
			what = "cancel"
			if len(jobs) > 0 {
				jobs[rng.Intn(len(jobs))].Cancel(ErrCancelled)
			}
		case 5:
			what = "extract"
			for _, rj := range s.ExtractQueued(1+rng.Intn(2), func(hops int) bool { return hops < 2 }) {
				check(step, "extracted, not yet handed back")
				if rng.Intn(2) == 0 {
					rj.Requeue()
				} else {
					p := newPeer()
					rj.Placed(p.Node, p.JobID, p.Wait)
				}
			}
		case 6:
			what = "peer answers"
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				o := remoteOutcome{res: sched.Result{Value: 7}}
				if rng.Intn(3) == 0 {
					o.err = errors.New("peer failed the job")
				}
				pending[i] <- o
				pending = append(pending[:i], pending[i+1:]...)
			}
		case 7:
			what = "let the pool run"
			if len(jobs) > 0 {
				// Not a forwarded job: only this goroutine can make its peer answer.
				if j := jobs[rng.Intn(len(jobs))]; status(j).State != StateForwarded {
					<-j.Done()
				}
			}
		}
		check(step, what)
	}

	// Close with whatever is still queued, staged, running or forwarded.
	s.Close()
	for _, j := range jobs {
		<-j.Done()
	}
	check(400, "close")
	_, gauges := censusAndGauges(s)
	if want := newGaugeSet(); gauges.String() != want.String() {
		t.Fatalf("at quiescence the gauges read %v, want all zero", gauges)
	}
	m := s.Snapshot()
	if m.QueueDepth != 0 || m.InFlight != 0 || m.ForwardedNow != 0 {
		t.Fatalf("queue_depth=%d in_flight=%d forwarded_now=%d after Close, want 0/0/0", m.QueueDepth, m.InFlight, m.ForwardedNow)
	}
	if m.ForwardedOut == 0 || m.ForwardedIn == 0 || m.Cancelled == 0 || m.Failed == 0 {
		t.Fatalf("the schedule missed a path: forwarded_out=%d forwarded_in=%d cancelled=%d failed=%d", m.ForwardedOut, m.ForwardedIn, m.Cancelled, m.Failed)
	}
	var sum GroupMetrics
	for _, g := range m.Priorities {
		sum.Submitted += g.Submitted
		sum.Completed += g.Completed
		sum.Failed += g.Failed
		sum.Cancelled += g.Cancelled
	}
	if m.Submitted != sum.Submitted || m.Completed != sum.Completed || m.Failed != sum.Failed || m.Cancelled != sum.Cancelled {
		t.Fatalf("service-wide counts %d/%d/%d/%d differ from the class sums %+v", m.Submitted, m.Completed, m.Failed, m.Cancelled, sum)
	}
	if m.Submitted != admitted || m.Completed+m.Failed+m.Cancelled != admitted {
		t.Fatalf("admitted %d jobs; submitted=%d, settled %d+%d+%d: every job must settle exactly once",
			admitted, m.Submitted, m.Completed, m.Failed, m.Cancelled)
	}
}

// TestBurstNoAdmissionRetries: 400 jobs arriving at once never bounce off
// the pool's one staging slot — feed holds at most one job per shard plus
// the staged one on the pool — so every job completes and the gauges
// return to zero.
func TestBurstNoAdmissionRetries(t *testing.T) {
	s := New(Config{Workers: 2, QueueCapacity: 400})
	t.Cleanup(s.Close)
	jobs := make([]*Job, 400)
	for i := range jobs {
		j, err := s.Submit(Request{Program: "fib", N: 10})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		<-j.Done()
		if st, res, err := j.Snapshot(); st != StateDone || err != nil || res.Value != 55 {
			t.Fatalf("job %s: state=%s value=%d err=%v, want done/55", j.ID, st, res.Value, err)
		}
	}
	m := s.Snapshot()
	if m.Completed != 400 || m.QueueDepth != 0 || m.InFlight != 0 {
		t.Fatalf("completed=%d queue_depth=%d in_flight=%d, want 400/0/0", m.Completed, m.QueueDepth, m.InFlight)
	}
}

// TestServeQueuedCancelSettlesAtOnce: on one worker, behind a running
// blocker and a staged pad, a queued job cancelled by Cancel and a queued
// job whose 30 ms deadline expires each settle cancelled at once — while
// the blocker still runs — and leave queue_depth.
func TestServeQueuedCancelSettlesAtOnce(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 8})
	t.Cleanup(s.Close)
	submit := func(req Request) *Job {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	blocker := submit(Request{Program: "nqueens-array", N: 14, TimeoutMS: 600000})
	t.Cleanup(func() { blocker.Cancel(ErrCancelled) })
	waitForState(t, blocker, StateRunning)
	pad := submit(Request{Program: "fib", N: 10})
	waitFor(t, "the pad to be staged", func() bool { return s.pool.QueueDepth() == 1 })
	cancelled := submit(Request{Program: "fib", N: 10})
	expiring := submit(Request{Program: "fib", N: 10, TimeoutMS: 30})
	if d := s.Snapshot().QueueDepth; d != 3 {
		t.Fatalf("queue_depth=%d with a staged pad and two queued jobs, want 3", d)
	}

	s.Cancel(cancelled.ID)
	for _, j := range []*Job{cancelled, expiring} {
		select {
		case <-j.Done():
		case <-time.After(2 * time.Second):
			st, _, _ := j.Snapshot()
			t.Fatalf("job %s still %s 2s after it was cancelled in the queue", j.ID, st)
		}
		if st, _, err := j.Snapshot(); st != StateCancelled {
			t.Fatalf("job %s ended %s (%v), want cancelled", j.ID, st, err)
		}
	}
	if st, _, _ := blocker.Snapshot(); st != StateRunning {
		t.Fatalf("blocker is %s: the queued jobs must settle while it runs", st)
	}
	if d := s.Snapshot().QueueDepth; d != 1 {
		t.Fatalf("queue_depth=%d after both queued jobs settled, want 1 (the pad)", d)
	}
	blocker.Cancel(ErrCancelled)
	<-pad.Done()
	if st, res, err := pad.Snapshot(); st != StateDone || res.Value != 55 {
		t.Fatalf("pad ended %s value=%d (%v), want done/55", st, res.Value, err)
	}
}

// TestServeCloseSettlesEveryAccepted: eight submitters race Close on a
// journaled service. Every job Submit accepted must be Done within 2 s of
// Close returning — none may be left in a queue that nobody drains. The
// backlog bound is far above what 5 ms of submitting fills, so Close meets
// admissions in flight rather than submitters bouncing off a full queue.
func TestServeCloseSettlesEveryAccepted(t *testing.T) {
	js, rec, err := jobstore.Open(t.TempDir(), jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	s := New(Config{Workers: 1, QueueCapacity: 4096, Journal: js, Recovered: rec})

	var (
		mu       sync.Mutex
		accepted []*Job
		wg       sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := s.Submit(Request{Program: "fib", N: 10})
				if errors.Is(err, wsrt.ErrPoolClosed) {
					return
				}
				if err == nil {
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	s.Close()
	deadline := time.After(2 * time.Second)
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("no submission was accepted before Close")
	}
	for _, j := range accepted {
		select {
		case <-j.Done():
		case <-deadline:
			st, _, _ := j.Snapshot()
			t.Fatalf("accepted job %s still %s 2s after Close returned", j.ID, st)
		}
	}
}
