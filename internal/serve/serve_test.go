package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivetc/internal/faults"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

func newTestService(t *testing.T, workers, queue int, check bool) *Service {
	t.Helper()
	s := New(Config{
		Workers:       workers,
		QueueCapacity: queue,
		Check:         check,
		Options:       sched.Options{GrowableDeque: true},
	})
	t.Cleanup(s.Close)
	return s
}

// TestServeConcurrentMixedJobs is the tentpole acceptance test: one
// resident pool serves >= 100 concurrently submitted jobs mixing three
// programs across three engines, and every result is correct. Run with
// -race in CI.
func TestServeConcurrentMixedJobs(t *testing.T) {
	s := newTestService(t, 2, 128, false)

	type kind struct {
		req  Request
		want int64
	}
	kinds := []kind{
		{Request{Program: "nqueens-array", N: 6, Engine: "adaptivetc"}, 4},
		{Request{Program: "fib", N: 15, Engine: "cilk"}, 610},
		{Request{Program: "knight", N: 5, Engine: "slaw"}, 304},
		{Request{Program: "nqueens-array", N: 7, Engine: "cilk-synched"}, 40},
		{Request{Program: "fib", N: 12, Engine: "helpfirst"}, 144},
		{Request{Program: "knight", N: 4, Engine: "cutoff-library"}, 0},
		{Request{Program: "fib", N: 10, Engine: "cutoff-programmer"}, 55},
	}

	const jobs = 105
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		k := kinds[i%len(kinds)]
		wg.Add(1)
		go func(i int, k kind) {
			defer wg.Done()
			// The queue (128) can momentarily fill against 105 concurrent
			// submitters; back off and retry — the client contract.
			var job *Job
			for {
				var err error
				job, err = s.Submit(k.req)
				if err == nil {
					break
				}
				if !errors.Is(err, wsrt.ErrQueueFull) {
					errs <- fmt.Errorf("job %d: submit: %v", i, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			<-job.Done()
			state, res, err := job.Snapshot()
			if err != nil || state != StateDone {
				errs <- fmt.Errorf("job %d (%s/%s): state=%s err=%v", i, k.req.Program, k.req.Engine, state, err)
				return
			}
			if res.Value != k.want {
				errs <- fmt.Errorf("job %d (%s/%s): value=%d want %d", i, k.req.Program, k.req.Engine, res.Value, k.want)
			}
		}(i, k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Snapshot()
	if m.Completed != jobs {
		t.Fatalf("completed=%d, want %d", m.Completed, jobs)
	}
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Fatalf("in-flight=%d queue=%d after drain, want 0/0", m.InFlight, m.QueueDepth)
	}
}

// TestServeNewFamilies submits one job per workload family added by the
// dataflow/branch-and-bound/first-solution expansion, with the invariant
// checker on. DAG and BnB values are checked against the serial oracle
// (schedule-independent by construction); first-solution jobs must carry a
// valid witness, which finalize routes through the truncation-tolerant
// checker plus the registry's server-side witness verification — so a
// violations==nil verdict here really covers both planes. The M knob rides
// the dag-layered request to prove the secondary parameter travels the
// submission path.
func TestServeNewFamilies(t *testing.T) {
	s := newTestService(t, 4, 32, true)
	reqs := []Request{
		{Program: "dag-layered", N: 4, M: 3, Engine: "adaptivetc"},
		{Program: "dag-stencil", N: 4, M: 5, Engine: "cilk"},
		{Program: "bnb-knapsack", N: 12, Engine: "slaw"},
		{Program: "bnb-tsp", N: 6, Engine: "helpfirst"},
		{Program: "first-nqueens", N: 7, Engine: "cilk-synched"},
		{Program: "first-sat", N: 10, Engine: "cutoff-programmer"},
	}
	for _, req := range reqs {
		job, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %s: %v", req.Program, err)
		}
		<-job.Done()
		state, res, err := job.Snapshot()
		if err != nil || state != StateDone {
			t.Fatalf("%s: state=%s err=%v", req.Program, state, err)
		}
		if verr := job.Violations(); verr != nil {
			t.Errorf("%s: invariant violations: %v", req.Program, verr)
		}
		p := registry.Params{N: req.N, M: req.M}
		if registry.FirstSolution(req.Program) {
			if ok, checkable := registry.VerifyWitness(req.Program, p, res.Value); !checkable || !ok {
				t.Errorf("%s: invalid witness %d (checkable=%v)", req.Program, res.Value, checkable)
			}
			continue
		}
		prog, err := registry.Build(req.Program, p)
		if err != nil {
			t.Fatalf("rebuild %s: %v", req.Program, err)
		}
		oracle, err := (sched.Serial{}).Run(prog, sched.Options{})
		if err != nil {
			t.Fatalf("serial %s: %v", req.Program, err)
		}
		if res.Value != oracle.Value {
			t.Errorf("%s: value %d, serial says %d", req.Program, res.Value, oracle.Value)
		}
	}
	if m := s.Snapshot(); m.InvariantViolations != 0 {
		t.Fatalf("invariant_violations=%d, want 0", m.InvariantViolations)
	}
}

// TestServeShardedConcurrency runs the service with two shards and the
// invariant checker on: a mixed stream of jobs must all complete with
// correct values, zero invariant violations, and terminal statuses that
// carry the shard each job ran on. Run with -race in CI.
func TestServeShardedConcurrency(t *testing.T) {
	s := New(Config{
		Workers:           2,
		QueueCapacity:     64,
		MaxConcurrentJobs: 2,
		Check:             true,
		Options:           sched.Options{GrowableDeque: true},
	})
	t.Cleanup(s.Close)

	type kind struct {
		req  Request
		want int64
	}
	kinds := []kind{
		{Request{Program: "fib", N: 12, Engine: "adaptivetc"}, 144},
		{Request{Program: "nqueens-array", N: 6, Engine: "cilk"}, 4},
		{Request{Program: "fib", N: 10, Engine: "helpfirst"}, 55},
		{Request{Program: "nqueens-array", N: 5, Engine: "slaw"}, 10},
		{Request{Program: "fib", N: 11, Engine: "cilk-synched"}, 89},
	}

	const jobs = 40
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		k := kinds[i%len(kinds)]
		wg.Add(1)
		go func(i int, k kind) {
			defer wg.Done()
			var job *Job
			for {
				var err error
				job, err = s.Submit(k.req)
				if err == nil {
					break
				}
				if !errors.Is(err, wsrt.ErrQueueFull) {
					errs <- fmt.Errorf("job %d: submit: %v", i, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			<-job.Done()
			state, res, err := job.Snapshot()
			if err != nil || state != StateDone {
				errs <- fmt.Errorf("job %d (%s/%s): state=%s err=%v", i, k.req.Program, k.req.Engine, state, err)
				return
			}
			if res.Value != k.want {
				errs <- fmt.Errorf("job %d (%s/%s): value=%d want %d", i, k.req.Program, k.req.Engine, res.Value, k.want)
			}
			if len(res.Shard) != 1 {
				errs <- fmt.Errorf("job %d (%s/%s): terminal result ran on shard %v, want one of the two one-worker shards", i, k.req.Program, k.req.Engine, res.Shard)
				return
			}
			if got := status(job); len(got.Shard) == 0 {
				errs <- fmt.Errorf("job %d: terminal JobStatus carries no shard", i)
			}
		}(i, k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Snapshot()
	if m.Completed != jobs {
		t.Fatalf("completed=%d, want %d", m.Completed, jobs)
	}
	if m.MaxConcurrentJobs != 2 {
		t.Fatalf("metrics report max_concurrent_jobs=%d, want 2", m.MaxConcurrentJobs)
	}
	if m.InvariantChecked != jobs || m.InvariantViolations != 0 {
		t.Fatalf("invariants: checked=%d violations=%d, want %d/0", m.InvariantChecked, m.InvariantViolations, jobs)
	}
	if m.RunningJobs != 0 || m.BusyWorkers != 0 || m.WorkerOccupancy != 0 {
		t.Fatalf("after drain: running=%d busy=%d occupancy=%v, want zeros", m.RunningJobs, m.BusyWorkers, m.WorkerOccupancy)
	}
}

// TestServeBackpressure fills the queue behind a blocked job and checks the
// overflow submission is rejected with wsrt.ErrQueueFull and counted.
func TestServeBackpressure(t *testing.T) {
	s := newTestService(t, 1, 2, false)

	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 12, Engine: "adaptivetc", TimeoutMS: 30000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to leave the queue and occupy the workers, so
	// the two fills below take the queue's whole capacity.
	for {
		if state, _, _ := blocker.Snapshot(); state == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{Program: "fib", N: 5}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := s.Submit(Request{Program: "fib", N: 5}); !errors.Is(err, wsrt.ErrQueueFull) {
		t.Fatalf("overflow: err=%v, want ErrQueueFull", err)
	}
	if got := s.Snapshot().Rejected; got != 1 {
		t.Fatalf("rejected=%d, want 1", got)
	}
	blocker.Cancel(ErrCancelled)
	<-blocker.Done()
}

// TestServeCancellation cancels a running job and checks the state, the
// cause, and that the pool serves the next job correctly.
func TestServeCancellation(t *testing.T) {
	s := newTestService(t, 2, 8, true)

	job, err := s.Submit(Request{Program: "nqueens-array", N: 13, Engine: "adaptivetc"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, ok := s.Cancel(job.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	<-job.Done()
	state, _, jerr := job.Snapshot()
	if state != StateCancelled || !errors.Is(jerr, ErrCancelled) {
		t.Fatalf("state=%s err=%v, want cancelled/ErrCancelled", state, jerr)
	}
	if v := job.Violations(); v != nil {
		t.Fatalf("truncated trace violated invariants: %v", v)
	}

	next, err := s.Submit(Request{Program: "fib", N: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-next.Done()
	if state, res, err := next.Snapshot(); err != nil || state != StateDone || res.Value != 55 {
		t.Fatalf("job after cancel: state=%s value=%d err=%v", state, res.Value, err)
	}
	if v := next.Violations(); v != nil {
		t.Fatalf("post-cancel job violated invariants: %v", v)
	}

	m := s.Snapshot()
	if m.Cancelled != 1 || m.Completed != 1 {
		t.Fatalf("cancelled=%d completed=%d, want 1/1", m.Cancelled, m.Completed)
	}
	if m.InvariantChecked != 2 || m.InvariantViolations != 0 {
		t.Fatalf("checked=%d violations=%d, want 2/0", m.InvariantChecked, m.InvariantViolations)
	}
}

// TestServeDeadline lets a job expire via its own timeout_ms.
func TestServeDeadline(t *testing.T) {
	s := newTestService(t, 1, 4, false)

	job, err := s.Submit(Request{Program: "nqueens-array", N: 13, Engine: "adaptivetc", TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	state, _, jerr := job.Snapshot()
	if state != StateCancelled {
		t.Fatalf("state=%s err=%v, want cancelled via deadline", state, jerr)
	}
}

// TestServeRejectsUnknowns validates program and engine names at submit.
func TestServeRejectsUnknowns(t *testing.T) {
	s := newTestService(t, 1, 4, false)
	if _, err := s.Submit(Request{Program: "no-such"}); err == nil {
		t.Fatal("unknown program accepted")
	}
	if _, err := s.Submit(Request{Program: "fib", Engine: "tascell"}); err == nil {
		t.Fatal("non-pool engine accepted")
	}
	if _, err := s.Submit(Request{Program: "fib", Engine: "serial"}); err == nil {
		t.Fatal("serial engine accepted")
	}
	if _, err := s.Submit(Request{Program: "fib", StealPolicy: "round-robin"}); err == nil {
		t.Fatal("unknown steal policy accepted")
	}
}

// TestServeStealPolicies runs one checked job per steal policy on a
// relaxed-deque service: the value must be right and the job's trace must
// pass the (multiplicity-tolerant) invariant audit.
func TestServeStealPolicies(t *testing.T) {
	s := New(Config{
		Workers:       4,
		QueueCapacity: 16,
		Check:         true,
		Options:       sched.Options{RelaxedDeque: true},
	})
	defer s.Close()
	oracle := fibOracle(12)
	for _, policy := range wsrt.StealPolicyNames() {
		job, err := s.Submit(Request{Program: "fib", N: 12, Engine: "adaptivetc", StealPolicy: policy})
		if err != nil {
			t.Fatalf("%s: submit: %v", policy, err)
		}
		<-job.Done()
		state, res, err := job.Snapshot()
		if err != nil || state != StateDone {
			t.Fatalf("%s: state %v, err %v", policy, state, err)
		}
		if res.Value != oracle {
			t.Errorf("%s: value %d, want %d", policy, res.Value, oracle)
		}
		if v := job.Violations(); v != nil {
			t.Errorf("%s: invariant violations: %v", policy, v)
		}
	}
	m := s.Snapshot()
	if m.InvariantChecked != int64(len(wsrt.StealPolicyNames())) || m.InvariantViolations != 0 {
		t.Fatalf("checked=%d violations=%d, want %d/0", m.InvariantChecked, m.InvariantViolations, len(wsrt.StealPolicyNames()))
	}
}

func fibOracle(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// TestHTTPAPI exercises the JSON API end to end over httptest.
func TestHTTPAPI(t *testing.T) {
	s := newTestService(t, 2, 16, false)
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	// Submit.
	body, _ := json.Marshal(Request{Program: "fib", N: 10, Engine: "adaptivetc"})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" {
		t.Fatal("no job id")
	}

	// Poll to done.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Value == nil || *st.Value != 55 {
		t.Fatalf("value = %v, want 55", st.Value)
	}
	if st.Stats == nil || st.Stats.Nodes == 0 {
		t.Fatal("terminal status is missing stats")
	}

	// Unknown id.
	resp, _ = http.Get(srv.URL + "/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad requests: an unknown program, and sizes its constructor cannot
	// build, which must be answered, not panic inside the handler.
	for _, bad := range []string{`{"program":"no-such"}`, `{"program":"fib","n":-1}`, `{"program":"nqueens-array","n":200}`, `{"program":"tree3","size":-1}`} {
		resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST %s: %v", bad, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `"error"`) {
			t.Fatalf("POST %s: status %d, body %s; want 400 with an error", bad, resp.StatusCode, msg)
		}
	}

	// Cancel via DELETE on a fresh long job.
	body, _ = json.Marshal(Request{Program: "nqueens-array", N: 13, Engine: "adaptivetc"})
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var longSt JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&longSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+longSt.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	job, ok := s.Get(longSt.ID)
	if !ok {
		t.Fatal("cancelled job vanished")
	}
	<-job.Done()
	if state, _, _ := job.Snapshot(); state != StateCancelled && state != StateDone {
		t.Fatalf("after DELETE: state=%s", state)
	}

	// Metrics.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Completed < 1 || m.Workers != 2 {
		t.Fatalf("metrics: completed=%d workers=%d", m.Completed, m.Workers)
	}

	// Catalog.
	resp, err = http.Get(srv.URL + "/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cat["programs"]) == 0 || len(cat["engines"]) != 7 {
		t.Fatalf("catalog: %d programs, %d engines (want 7)", len(cat["programs"]), len(cat["engines"]))
	}
}

// TestJobRetention evicts the oldest terminal records past the bound.
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 8, RetainJobs: 2, Options: sched.Options{GrowableDeque: true}})
	defer s.Close()

	ids := make([]string, 3)
	for i := range ids {
		job, err := s.Submit(Request{Program: "fib", N: 5})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		ids[i] = job.ID
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("oldest record not evicted")
	}
	if _, ok := s.Get(ids[2]); !ok {
		t.Fatal("newest record evicted")
	}
}

// TestServeQuarantineMetrics runs every job under a certain-panic fault
// plan: each one must land in StateFailed with ErrJobPanicked, the
// quarantine gauge must follow the pool's counter, and the occupancy
// gauges must settle back to zero — a quarantined shard that stayed
// "busy" forever was exactly the bug the fault plane exists to catch.
func TestServeQuarantineMetrics(t *testing.T) {
	s := New(Config{
		Workers:       1,
		QueueCapacity: 4,
		Faults:        faults.New(faults.Spec{Seed: 20100424, Panic: 1}),
	})
	t.Cleanup(s.Close)

	for i := 0; i < 2; i++ {
		job, err := s.Submit(Request{Program: "fib", N: 10})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-job.Done()
		state, _, jerr := job.Snapshot()
		if state != StateFailed || !errors.Is(jerr, wsrt.ErrJobPanicked) {
			t.Fatalf("job %d: state=%s err=%v, want failed/ErrJobPanicked", i, state, jerr)
		}
	}

	m := s.Snapshot()
	if m.Failed != 2 || m.QuarantinedJobs != 2 {
		t.Fatalf("failed=%d quarantined=%d, want 2/2", m.Failed, m.QuarantinedJobs)
	}
	if m.Completed != 0 {
		t.Fatalf("completed=%d, want 0", m.Completed)
	}
	for i := 0; ; i++ {
		m = s.Snapshot()
		if m.BusyWorkers == 0 && m.WorkerOccupancy == 0 {
			break
		}
		if i >= 200 {
			t.Fatalf("occupancy never settled after quarantine: busy=%d occupancy=%f",
				m.BusyWorkers, m.WorkerOccupancy)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeLatencyExcludesQueueWait pins the latency-ring accounting: a
// job cancelled while still queued contributes nothing (its time was
// waiting, not serving), while an aborted job that actually ran
// contributes only its run time. Before the fix, load shedding poisoned
// p99 with queue waits.
func TestServeLatencyExcludesQueueWait(t *testing.T) {
	s := newTestService(t, 1, 4, false)

	// The blocker must outlive the whole test window — nqueens 14 runs for
	// minutes on one worker; the cancel below reaps it in milliseconds.
	blocker, err := s.Submit(Request{Program: "nqueens-array", N: 14, Engine: "adaptivetc", TimeoutMS: 600000})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if state, _, _ := blocker.Snapshot(); state == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(Request{Program: "fib", N: 5})
		if err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	time.Sleep(150 * time.Millisecond) // let queue wait accrue
	for _, j := range queued {
		j.Cancel(ErrCancelled)
	}
	// Cancelling the blocker frees the worker, which lets the pool drain
	// the two dead queued jobs without ever starting them.
	blocker.Cancel(ErrCancelled)
	<-blocker.Done()
	for _, j := range queued {
		<-j.Done()
		if state, _, _ := j.Snapshot(); state != StateCancelled {
			t.Fatalf("queued job state=%s, want cancelled", state)
		}
	}

	// Exactly one sample may exist: the blocker's run time. The cancelled
	// queued jobs waited ~150ms each — with the old accounting the ring
	// would hold three samples and p99 would read queue wait as latency.
	if n := ringCount(s.latencies); n != 1 {
		t.Fatalf("latency ring holds %d samples, want 1 (the aborted-but-ran blocker only)", n)
	}
	_, res, _ := blocker.Snapshot()
	if res.Makespan <= 0 {
		t.Fatalf("cancelled running blocker has Makespan %d, want > 0", res.Makespan)
	}
	wantMS := float64(res.Makespan) / 1e6
	if m := s.Snapshot(); m.P50LatencyMS != wantMS || m.P99LatencyMS != wantMS {
		t.Fatalf("ring sample p50=%vms p99=%vms, want the blocker's run time %vms",
			m.P50LatencyMS, m.P99LatencyMS, wantMS)
	}
}

// ringCount reports how many samples the latency ring holds.
func ringCount(l *latencyRing) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return len(l.buf)
	}
	return l.next
}

// TestServeAdmissionRetryTransient checks that Submit absorbs a transient
// injected admission rejection: the first attempt is refused, the retry is
// admitted, the job completes, and the retry — not a rejection — is what
// the metrics record.
func TestServeAdmissionRetryTransient(t *testing.T) {
	// Find a seed whose admission stream rejects the first draw and admits
	// the second at rate 0.5. The scan runs on a probe plan; the service
	// gets a fresh plan with the same spec, hence the same stream.
	spec := faults.Spec{Reject: 0.5}
	for seed := int64(1); ; seed++ {
		spec.Seed = seed
		fi := faults.New(spec).Admission()
		if fi.RejectAdmission() && !fi.RejectAdmission() {
			break
		}
		if seed > 1000 {
			t.Fatal("no reject-then-admit seed below 1000")
		}
	}
	s := New(Config{
		Workers:       1,
		QueueCapacity: 4,
		Faults:        faults.New(spec),
	})
	t.Cleanup(s.Close)

	job, err := s.Submit(Request{Program: "fib", N: 10})
	if err != nil {
		t.Fatalf("submit with transient rejection: %v", err)
	}
	<-job.Done()
	if state, res, jerr := job.Snapshot(); state != StateDone || jerr != nil || res.Value != 55 {
		t.Fatalf("retried job: state=%s value=%d err=%v, want done/55", state, res.Value, jerr)
	}
	m := s.Snapshot()
	if m.AdmissionRetries != 1 || m.Rejected != 0 {
		t.Fatalf("retries=%d rejected=%d, want 1/0", m.AdmissionRetries, m.Rejected)
	}
}

// TestServeAdmissionSustainedRejection checks the other side of the
// contract: an accepted job is never spuriously failed by staging
// pressure. Under a fault plan that rejects every pool submission, the
// pump parks the job and retries with backoff until the job's own
// deadline retires it as cancelled — the caller saw an accept, not a
// rejection, and the pump survives to serve the next job.
func TestServeAdmissionSustainedRejection(t *testing.T) {
	s := New(Config{
		Workers:       1,
		QueueCapacity: 4,
		Faults:        faults.New(faults.Spec{Seed: 1, Reject: 1}),
	})
	t.Cleanup(s.Close)

	job, err := s.Submit(Request{Program: "fib", N: 10, TimeoutMS: 50})
	if err != nil {
		t.Fatalf("submit under sustained staging rejection: %v", err)
	}
	<-job.Done()
	if state, _, jerr := job.Snapshot(); state != StateCancelled || !errors.Is(jerr, context.DeadlineExceeded) {
		t.Fatalf("parked job: state=%s err=%v, want cancelled by deadline", state, jerr)
	}
	m := s.Snapshot()
	if m.AdmissionRetries < 1 || m.Rejected != 0 || m.Cancelled != 1 {
		t.Fatalf("retries=%d rejected=%d cancelled=%d, want >=1/0/1", m.AdmissionRetries, m.Rejected, m.Cancelled)
	}
}
