// Tests for the QoS admission plane: weighted-fair ordering, tenant
// quotas and rate limits, graceful drain, the percentile fix, and
// goroutine hygiene of the job lifecycle.
package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivetc/internal/core"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// waitForState polls until the job reaches want (the submit→running edge
// is asynchronous: the job's watcher marks the start the pool announces).
func waitForState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _, _ := j.Snapshot(); st == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _, err := j.Snapshot()
	t.Fatalf("job %s stuck in state %s (err=%v), want %s", j.ID, st, err, want)
}

// startOrder records the order in which probed jobs start on the pool.
type startOrder struct {
	mu  sync.Mutex
	ids []int
}

// probeEngine wraps a pool engine and records its job's start: the pool
// calls NewExec exactly once per job, at start, under its lock, so the
// recorded order is the true start order.
type probeEngine struct {
	inner wsrt.PoolEngine
	id    int
	ord   *startOrder
}

func (e *probeEngine) Name() string { return e.inner.Name() }

func (e *probeEngine) NewExec(n int, opt sched.Options) wsrt.Engine {
	e.ord.mu.Lock()
	e.ord.ids = append(e.ord.ids, e.id)
	e.ord.mu.Unlock()
	return e.inner.NewExec(n, opt)
}

// TestWeightedFairOrdering is the contention test for the admission
// queue: with the single worker held by a blocker, four background jobs
// submitted *before* four interactive jobs must still start *after* them
// — all but the one background job feed had already staged into the
// pool's capacity-1 queue before the interactive jobs arrived.
func TestWeightedFairOrdering(t *testing.T) {
	ord := &startOrder{}
	nextID := 0
	table := lookupEngine
	lookupEngine = func(name string) (wsrt.PoolEngine, bool) {
		if name != "qos-probe" {
			return table(name)
		}
		e := &probeEngine{inner: core.New(), id: nextID, ord: ord}
		nextID++
		return e, true
	}
	t.Cleanup(func() { lookupEngine = table })

	s := New(Config{Workers: 1, QueueCapacity: 16})
	t.Cleanup(s.Close)

	// id 0: the blocker, holding the lone worker.
	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, Engine: "qos-probe", TimeoutMS: 30000})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)

	var jobs []*Job
	submit := func(prio string) {
		t.Helper()
		j, err := s.Submit(Request{Program: "fib", N: 10, Engine: "qos-probe", Priority: prio})
		if err != nil {
			t.Fatalf("submit %s: %v", prio, err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 4; i++ { // ids 1..4
		submit("background")
	}
	for i := 0; i < 4; i++ { // ids 5..8
		submit("interactive")
	}
	blocker.Cancel(ErrCancelled)
	for _, j := range jobs {
		<-j.Done()
		if st, res, err := j.Snapshot(); st != StateDone || err != nil || res.Value != 55 {
			t.Fatalf("job %s: state=%s value=%d err=%v, want done/55", j.ID, st, res.Value, err)
		}
	}
	<-blocker.Done()

	ord.mu.Lock()
	order := append([]int(nil), ord.ids...)
	ord.mu.Unlock()
	if len(order) != 9 || order[0] != 0 {
		t.Fatalf("start order %v: want 9 starts led by the blocker", order)
	}
	lastInteractive := 0
	for pos, id := range order {
		if id >= 5 {
			lastInteractive = pos
		}
	}
	jumped := 0
	for _, id := range order[1:lastInteractive] {
		if id >= 1 && id <= 4 {
			jumped++
		}
	}
	if jumped > 1 {
		t.Fatalf("start order %v: %d background jobs started before the last interactive; only the pre-staged one may", order, jumped)
	}

	m := s.Snapshot()
	if got := m.Priorities[string(PriorityInteractive)].Completed; got != 4 {
		t.Fatalf("interactive completed = %d, want 4", got)
	}
	if got := m.Priorities[string(PriorityBackground)].Completed; got != 4 {
		t.Fatalf("background completed = %d, want 4", got)
	}
}

// TestWFQClassWeights pins the smooth-weighted-round-robin drain order
// for the 16/4/1 weights with four jobs queued per class.
func TestWFQClassWeights(t *testing.T) {
	q := newWFQ()
	for i := 0; i < 4; i++ {
		for _, p := range []Priority{PriorityBackground, PriorityBatch, PriorityInteractive} {
			q.push(&admItem{job: &Job{tenant: DefaultTenant, prio: p}})
		}
	}
	var got []Priority
	for q.depth() > 0 {
		it, ok := q.pop()
		if !ok {
			t.Fatal("pop reported closed on a non-empty queue")
		}
		got = append(got, it.job.prio)
	}
	want := []Priority{
		PriorityInteractive, PriorityInteractive, PriorityBatch,
		PriorityInteractive, PriorityInteractive, PriorityBackground,
		PriorityBatch, PriorityBatch, PriorityBatch,
		PriorityBackground, PriorityBackground, PriorityBackground,
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v (diverges at %d)", got, want, i)
		}
	}
}

// TestWFQTenantRoundRobin checks fairness within a class: tenants take
// turns regardless of how many jobs each has queued, and a tenant whose
// queue empties leaves the ring cleanly.
func TestWFQTenantRoundRobin(t *testing.T) {
	q := newWFQ()
	push := func(id, tenant string) {
		q.push(&admItem{job: &Job{ID: id, tenant: tenant, prio: PriorityBatch}})
	}
	push("a1", "a")
	push("a2", "a")
	push("b1", "b")
	var got []string
	for q.depth() > 0 {
		it, _ := q.pop()
		got = append(got, it.job.ID)
	}
	if want := "a1 b1 a2"; strings.Join(got, " ") != want {
		t.Fatalf("tenant round-robin order %v, want %q", got, want)
	}
}

// TestQuotaRejection exhausts a tenant's in-flight quota: the rejection
// is typed, carries the tenant and a Retry-After hint, does not affect
// other tenants, and clears when the tenant's own job finishes.
func TestQuotaRejection(t *testing.T) {
	s := New(Config{
		Workers:       1,
		QueueCapacity: 8,
		Tenants:       map[string]TenantLimits{"acme": {MaxInFlight: 1}},
	})
	t.Cleanup(s.Close)

	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, Tenant: "acme", TimeoutMS: 30000})
	if err != nil {
		t.Fatal(err)
	}

	_, err = s.Submit(Request{Program: "fib", N: 10, Tenant: "acme"})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != "quota" || rej.Tenant != "acme" || rej.RetryAfter <= 0 {
		t.Fatalf("over-quota submit: err=%v, want a quota RejectionError for acme", err)
	}

	other, err := s.Submit(Request{Program: "fib", N: 10, Tenant: "other"})
	if err != nil {
		t.Fatalf("other tenant blocked by acme's quota: %v", err)
	}

	blocker.Cancel(ErrCancelled)
	<-blocker.Done()
	again, err := s.Submit(Request{Program: "fib", N: 10, Tenant: "acme"})
	if err != nil {
		t.Fatalf("submit after quota cleared: %v", err)
	}
	<-again.Done()
	<-other.Done()

	m := s.Snapshot()
	if m.QuotaRejected != 1 || m.Tenants["acme"].QuotaRejected != 1 {
		t.Fatalf("quota_rejected=%d acme=%d, want 1/1", m.QuotaRejected, m.Tenants["acme"].QuotaRejected)
	}
	if m.Rejected != 0 {
		t.Fatalf("rejected=%d: quota rejections must not count as queue-full", m.Rejected)
	}
}

// TestRateLimitRejection drains a tenant's token bucket and checks both
// the typed error and the HTTP mapping: 429 with a whole-second
// Retry-After derived from the refill rate.
func TestRateLimitRejection(t *testing.T) {
	s := New(Config{
		Workers:       1,
		QueueCapacity: 8,
		Tenants:       map[string]TenantLimits{"burst": {RatePerSec: 0.5, Burst: 1}},
	})
	t.Cleanup(s.Close)

	first, err := s.Submit(Request{Program: "fib", N: 10, Tenant: "burst"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(Request{Program: "fib", N: 10, Tenant: "burst"})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Reason != "rate-limit" || rej.RetryAfter <= 0 || rej.RetryAfter > 2*time.Second {
		t.Fatalf("rate-limited submit: err=%v, want rate-limit RejectionError with 0 < RetryAfter <= 2s", err)
	}

	srv := httptest.NewServer(NewMux(s))
	t.Cleanup(srv.Close)
	req, _ := http.NewRequest("POST", srv.URL+"/jobs", strings.NewReader(`{"program":"fib","n":10}`))
	req.Header.Set("X-Tenant", "burst")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited POST status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\" (1 token at 0.5/s)", got)
	}
	<-first.Done()
	if m := s.Snapshot(); m.RateLimited != 2 || m.Tenants["burst"].RateLimited != 2 {
		t.Fatalf("rate_limited=%d burst=%d, want 2/2", m.RateLimited, m.Tenants["burst"].RateLimited)
	}
}

// TestDrainLifecycle walks the graceful shutdown: /readyz flips to 503
// the moment draining starts, new submissions are refused with
// ErrDraining (503 over HTTP) while the in-flight job finishes, /healthz
// stays 200 throughout, and Drain returns once the last job settles.
func TestDrainLifecycle(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 8})
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewMux(s))
	t.Cleanup(srv.Close)

	get := func(path string) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}

	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, TimeoutMS: 30000})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Ready() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Ready() {
		t.Fatal("service still ready after Drain started")
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}
	if _, err := s.Submit(Request{Program: "fib", N: 10}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err=%v, want ErrDraining", err)
	}
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"program":"fib","n":10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain status = %d, want 503", resp.StatusCode)
	}

	blocker.Cancel(ErrCancelled)
	<-blocker.Done()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last job settled")
	}
	m := s.Snapshot()
	if !m.Draining || m.InFlight != 0 {
		t.Fatalf("draining=%v in_flight=%d, want true/0", m.Draining, m.InFlight)
	}
}

// TestDrainDeadline checks the other exit: a drain bounded by a context
// that expires while a job is still running reports the context error and
// leaves the service drained.
func TestDrainDeadline(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 4})
	t.Cleanup(s.Close)
	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, TimeoutMS: 30000})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain: err=%v, want DeadlineExceeded", err)
	}
	blocker.Cancel(ErrCancelled)
	<-blocker.Done()
}

// TestPercentilesNearestRank pins the S2 fix: nearest-rank (ceil)
// indexing. On 50 samples 1..50, p99 must be the 50th sample — the old
// truncating int(p*(n-1)) indexing returned the 49th (~p96) and
// under-reported the tail.
func TestPercentilesNearestRank(t *testing.T) {
	r := newLatencyRing(64)
	for i := 1; i <= 50; i++ {
		r.add(int64(i))
	}
	p50, p99 := r.percentiles()
	if p50 != 25 || p99 != 50 {
		t.Fatalf("p50=%d p99=%d, want 25/50 (nearest-rank)", p50, p99)
	}
	for _, tc := range []struct {
		p       float64
		n, want int
	}{
		{0.99, 50, 49}, {0.50, 50, 24}, {0.99, 100, 98},
		{0.50, 1, 0}, {0.99, 1, 0}, {1.0, 10, 9}, {0.0, 10, 0},
	} {
		if got := nearestRank(tc.p, tc.n); got != tc.want {
			t.Fatalf("nearestRank(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

// TestTokenBucket pins refill arithmetic and the Retry-After hint.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(TenantLimits{RatePerSec: 2, Burst: 1})
	t0 := time.Now()
	if ok, _ := b.take(t0); !ok {
		t.Fatal("first take from a full bucket refused")
	}
	ok, retry := b.take(t0)
	if ok || retry != 500*time.Millisecond {
		t.Fatalf("empty bucket: ok=%v retry=%v, want refused/500ms", ok, retry)
	}
	if ok, _ := b.take(t0.Add(600 * time.Millisecond)); !ok {
		t.Fatal("take after refill interval refused")
	}
	unlimited := newTokenBucket(TenantLimits{})
	for i := 0; i < 100; i++ {
		if ok, _ := unlimited.take(t0); !ok {
			t.Fatal("unlimited bucket refused")
		}
	}
}

// TestMetricsBreakdowns submits across two tenants, two priorities, and
// two engines, then checks every breakdown surfaces in the snapshot and
// the histogram accounts for each completion.
func TestMetricsBreakdowns(t *testing.T) {
	s := New(Config{Workers: 2, QueueCapacity: 8, Options: sched.Options{GrowableDeque: true}})
	t.Cleanup(s.Close)

	a, err := s.Submit(Request{Program: "fib", N: 10, Tenant: "alpha", Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Request{Program: "fib", N: 10, Tenant: "beta", Priority: "background", Engine: "cilk"})
	if err != nil {
		t.Fatal(err)
	}
	<-a.Done()
	<-b.Done()

	m := s.Snapshot()
	for _, tenant := range []string{"alpha", "beta"} {
		g, ok := m.Tenants[tenant]
		if !ok || g.Submitted != 1 || g.Completed != 1 || g.Queued != 0 || g.Running != 0 {
			t.Fatalf("tenant %s metrics = %+v, want 1 submitted, 1 completed, idle gauges", tenant, g)
		}
	}
	if g := m.Priorities[string(PriorityInteractive)]; g.Completed != 1 {
		t.Fatalf("interactive completed = %d, want 1", g.Completed)
	}
	if g := m.Priorities[string(PriorityBackground)]; g.Completed != 1 {
		t.Fatalf("background completed = %d, want 1", g.Completed)
	}
	if g := m.Priorities[string(PriorityBatch)]; g.Submitted != 0 {
		t.Fatalf("batch submitted = %d, want 0", g.Submitted)
	}
	if g := m.Engines["adaptivetc"]; g.Completed != 1 {
		t.Fatalf("adaptivetc engine completed = %d, want 1", g.Completed)
	}
	if g := m.Engines["cilk"]; g.Completed != 1 {
		t.Fatalf("cilk engine completed = %d, want 1", g.Completed)
	}
	var histTotal int64
	for _, c := range m.LatencyHistogram.Counts {
		histTotal += c
	}
	if histTotal != 2 {
		t.Fatalf("histogram holds %d samples, want 2", histTotal)
	}
	if m.P99LatencyMS <= 0 {
		t.Fatalf("p99=%vms, want > 0 after completions", m.P99LatencyMS)
	}
}

// TestServeGoroutineHygiene: after a service that ran completed, cancelled
// and deadline-expired jobs, had a job cancelled while it sat staged in the
// pool's queue, and was closed with another one staged, every goroutine it
// spawned — the job watchers, the staged job's among them both times — is
// gone.
func TestServeGoroutineHygiene(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, QueueCapacity: 8, Check: true, Options: sched.Options{GrowableDeque: true}})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(Request{Program: "fib", N: 10})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	expired, err := s.Submit(Request{Program: "nqueens-array", N: 13, TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, expired)
	for _, j := range jobs {
		<-j.Done()
	}

	// stageBehindBlocker leaves one job running on the whole pool and a
	// second in the pool's one-slot queue, with its watcher waiting on it.
	stageBehindBlocker := func() (blocker, staged *Job) {
		t.Helper()
		blocker, err := s.Submit(Request{Program: "nqueens-array", N: 14, TimeoutMS: 600000})
		if err != nil {
			t.Fatal(err)
		}
		waitForState(t, blocker, StateRunning)
		staged, err = s.Submit(Request{Program: "fib", N: 10})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "feed to stage the job", func() bool { return s.pool.QueueDepth() == 1 })
		return blocker, staged
	}

	// Cancelled while staged: the pool settles it, its watcher feeds the
	// pool, and the service must then serve the next job.
	blocker, staged := stageBehindBlocker()
	staged.Cancel(ErrCancelled)
	blocker.Cancel(ErrCancelled)
	<-staged.Done()
	if st, _, _ := staged.Snapshot(); st != StateCancelled {
		t.Fatalf("job cancelled while staged ended %s, want cancelled", st)
	}
	next, err := s.Submit(Request{Program: "fib", N: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-next.Done()
	if st, _, _ := next.Snapshot(); st != StateDone {
		t.Fatalf("job after the cancelled staged one ended %s: feed did not come back", st)
	}

	// Close with one job staged: the pool drains it, which ends its watcher.
	blocker, staged = stageBehindBlocker()
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-staged.Done()
	if st, _, jerr := staged.Snapshot(); st != StateFailed || !errors.Is(jerr, wsrt.ErrPoolClosed) {
		t.Fatalf("job staged at Close ended %s (%v), want failed with ErrPoolClosed", st, jerr)
	}
	blocker.Cancel(ErrCancelled) // Close lets a running job finish; do not make it the long way
	<-closed

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d at close vs %d at start — service leaked", runtime.NumGoroutine(), base)
}
