package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The ?wait= long-poll of POST /jobs and GET /jobs/{id}. Every test that
// needs a job to stay live pins the service's one worker with a blocker it
// cancels on the way out, and every test that needs to know a handler is
// (or is no longer) blocked reads the long_poll_waiting gauge rather than
// counting goroutines or sleeping a guessed interval.

// answer is one HTTP response, read to the end.
type answer struct {
	code int
	body []byte
	st   JobStatus
	took time.Duration
	at   time.Time
}

func longPollServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, 1, 16, false)
	srv := httptest.NewServer(NewMux(s))
	t.Cleanup(srv.Close)
	return s, srv
}

// do sends one request and decodes a JobStatus answer (error bodies leave
// st zero).
func do(ctx context.Context, method, url, body string) (answer, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return answer{}, err
	}
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a := answer{code: resp.StatusCode}
	a.body, err = io.ReadAll(resp.Body)
	a.at = time.Now()
	a.took = a.at.Sub(t0)
	if err == nil && resp.StatusCode < 300 {
		err = json.Unmarshal(a.body, &a.st)
	}
	return a, err
}

func mustDo(t *testing.T, method, url, body string) answer {
	t.Helper()
	a, err := do(context.Background(), method, url, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return a
}

// pinWorker submits a job that outlasts the test on the service's only
// worker, waits until it runs, and cancels it when the test ends.
func pinWorker(t *testing.T, s *Service) *Job {
	t.Helper()
	j, err := s.Submit(Request{Program: "nqueens-array", N: 15, TimeoutMS: 120000})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	t.Cleanup(func() {
		j.Cancel(ErrCancelled)
		<-j.Done()
	})
	waitFor(t, "the blocker to start", func() bool {
		st, _, _ := j.Snapshot()
		return st == StateRunning
	})
	return j
}

// queueBehind submits a short job that stays queued behind the blocker.
func queueBehind(t *testing.T, s *Service) *Job {
	t.Helper()
	j, err := s.Submit(Request{Program: "fib", N: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func waitWaiting(t *testing.T, s *Service, want int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("long_poll_waiting == %d", want), func() bool {
		return s.longPoll.waiting.Load() == want
	})
}

// TestLongPollTerminalJobReturnsAtOnce: a job already settled is answered
// without blocking and without counting as a long-poll.
func TestLongPollTerminalJobReturnsAtOnce(t *testing.T) {
	s, srv := longPollServer(t)
	j := queueBehind(t, s) // no blocker: it just runs
	<-j.Done()
	a := mustDo(t, "GET", srv.URL+"/jobs/"+j.ID+"?wait=20s", "")
	if a.code != http.StatusOK || a.st.State != StateDone || a.st.Value == nil || *a.st.Value != 55 {
		t.Fatalf("GET done job: %d %s", a.code, a.body)
	}
	if a.took > 5*time.Second {
		t.Fatalf("a settled job took %v to answer", a.took)
	}
	if m := s.Snapshot(); m.LongPolls != 0 || m.LongPollTimeouts != 0 || m.LongPollWaiting != 0 {
		t.Fatalf("long-poll counters moved for a settled job: %+v", m)
	}
}

// TestLongPollSubmitAnswersDone: POST ?wait= on a short job is submit and
// result in one round trip, still a 202.
func TestLongPollSubmitAnswersDone(t *testing.T) {
	_, srv := longPollServer(t)
	a := mustDo(t, "POST", srv.URL+"/jobs?wait=20s", `{"program":"fib","n":15,"engine":"cilk"}`)
	if a.code != http.StatusAccepted {
		t.Fatalf("POST ?wait: status %d, want 202: %s", a.code, a.body)
	}
	if a.st.State != StateDone || a.st.Value == nil || *a.st.Value != 610 || a.st.Stats == nil {
		t.Fatalf("POST ?wait did not answer the finished job: %s", a.body)
	}
}

// TestLongPollWakesOnDone: a waiter on a live job is answered when Done
// closes, not at its bound.
func TestLongPollWakesOnDone(t *testing.T) {
	s, srv := longPollServer(t)
	j, err := s.Submit(Request{Program: "nqueens-array", N: 12})
	if err != nil {
		t.Fatal(err)
	}
	doneAt := make(chan time.Time, 1)
	go func() {
		<-j.Done()
		doneAt <- time.Now()
	}()
	a := mustDo(t, "GET", srv.URL+"/jobs/"+j.ID+"?wait=20s", "")
	if a.code != http.StatusOK || a.st.State != StateDone || a.st.Value == nil || *a.st.Value != 14200 {
		t.Fatalf("waiter answered %d %s", a.code, a.body)
	}
	if lag := a.at.Sub(<-doneAt); lag > time.Second {
		t.Fatalf("answer came %v after Done closed", lag)
	}
	if m := s.Snapshot(); m.LongPolls != 1 || m.LongPollTimeouts != 0 || m.LongPollWaiting != 0 {
		t.Fatalf("long_polls=%d long_poll_timeouts=%d long_poll_waiting=%d, want 1/0/0",
			m.LongPolls, m.LongPollTimeouts, m.LongPollWaiting)
	}
}

// TestLongPollBoundElapses: at the bound the answer is the usual status
// code with a state that is not terminal.
func TestLongPollBoundElapses(t *testing.T) {
	s, srv := longPollServer(t)
	blocker := pinWorker(t, s)

	a := mustDo(t, "GET", srv.URL+"/jobs/"+blocker.ID+"?wait=30ms", "")
	if a.code != http.StatusOK || a.st.State != StateRunning {
		t.Fatalf("GET at the bound: %d %s", a.code, a.body)
	}
	if a.took < 30*time.Millisecond {
		t.Fatalf("answered a live job after %v, before the 30ms bound", a.took)
	}
	a = mustDo(t, "POST", srv.URL+"/jobs?wait=30ms", `{"program":"fib","n":10}`)
	if a.code != http.StatusAccepted || a.st.State != StateQueued || a.st.ID == "" {
		t.Fatalf("POST at the bound: %d %s", a.code, a.body)
	}
	if a.took < 30*time.Millisecond {
		t.Fatalf("answered a queued job after %v, before the 30ms bound", a.took)
	}
	if m := s.Snapshot(); m.LongPolls != 2 || m.LongPollTimeouts != 2 || m.LongPollWaiting != 0 {
		t.Fatalf("long_polls=%d long_poll_timeouts=%d long_poll_waiting=%d, want 2/2/0",
			m.LongPolls, m.LongPollTimeouts, m.LongPollWaiting)
	}
}

// TestLongPollParseWait: absent and zero mean no wait, anything above the
// clamp is the clamp, anything that is not a non-negative duration is an
// error.
func TestLongPollParseWait(t *testing.T) {
	for query, want := range map[string]time.Duration{
		"":             0,
		"?wait=":       0,
		"?wait=0":      0,
		"?wait=0s":     0,
		"?wait=250ms":  250 * time.Millisecond,
		"?wait=30s":    maxWait,
		"?wait=1h":     maxWait,
		"?wait=87600h": maxWait,
	} {
		got, err := parseWait(httptest.NewRequest("GET", "/jobs/j1"+query, nil))
		if err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", query, got, err, want)
		}
	}
	for _, query := range []string{"?wait=abc", "?wait=5", "?wait=-1s", "?wait=2s2", "?wait=1e3s"} {
		if got, err := parseWait(httptest.NewRequest("GET", "/jobs/j1"+query, nil)); err == nil {
			t.Errorf("parseWait(%q) = %v, want an error", query, got)
		}
	}
}

// TestLongPollBadRequests: a malformed wait is a 400 on both routes and
// submits nothing; so are bytes after the JSON object, while white space
// after it is fine.
func TestLongPollBadRequests(t *testing.T) {
	s, srv := longPollServer(t)
	j := queueBehind(t, s)
	<-j.Done()
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/jobs/" + j.ID + "?wait=soon", ""},
		{"GET", "/jobs/" + j.ID + "?wait=-2s", ""},
		{"POST", "/jobs?wait=soon", `{"program":"fib","n":10}`},
		{"POST", "/jobs", `{"program":"fib","n":10}xyz`},
		{"POST", "/jobs?wait=1s", `{"program":"fib","n":10} {"program":"fib"}`},
	} {
		a, _ := do(context.Background(), tc.method, srv.URL+tc.path, tc.body)
		if a.code != http.StatusBadRequest || !strings.Contains(string(a.body), `"error"`) {
			t.Errorf("%s %s %q: %d %s, want a 400 with an error body", tc.method, tc.path, tc.body, a.code, a.body)
		}
	}
	if m := s.Snapshot(); m.Submitted != 1 {
		t.Fatalf("submitted = %d after five refused requests, want only the set-up job", m.Submitted)
	}
	a := mustDo(t, "POST", srv.URL+"/jobs?wait=20s", "{\"program\":\"fib\",\"n\":10}\r\n \t\n")
	if a.code != http.StatusAccepted || a.st.State != StateDone {
		t.Fatalf("white space after the object: %d %s", a.code, a.body)
	}
}

// TestLongPollAbsentWaitUnchanged pins the answer to a request without
// wait: immediate, and byte for byte what the mux rendered before it knew
// the parameter. wait=0 is the same request.
func TestLongPollAbsentWaitUnchanged(t *testing.T) {
	s, srv := longPollServer(t)
	pinWorker(t, s)
	j := queueBehind(t, s)
	created, err := json.Marshal(j.Created)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{
  "id": %q,
  "state": "queued",
  "program": "fib",
  "engine": "adaptivetc",
  "tenant": "default",
  "priority": "batch",
  "created": %s
}
`, j.ID, created)
	for _, query := range []string{"", "?wait=0", "?wait=0s"} {
		a := mustDo(t, "GET", srv.URL+"/jobs/"+j.ID+query, "")
		if a.code != http.StatusOK || string(a.body) != want {
			t.Errorf("GET queued job %q: %d\n%s\nwant 200\n%s", query, a.code, a.body, want)
		}
		if a.took > 5*time.Second {
			t.Errorf("GET queued job %q took %v", query, a.took)
		}
	}
	a := mustDo(t, "POST", srv.URL+"/jobs", `{"program":"fib","n":10}`)
	if a.code != http.StatusAccepted || a.st.State != StateQueued {
		t.Errorf("POST without wait behind a blocker: %d %s, want 202 queued", a.code, a.body)
	}
	if m := s.Snapshot(); m.LongPolls != 0 {
		t.Fatalf("long_polls = %d with no wait sent", m.LongPolls)
	}
}

// TestLongPollUnknownJob: a 404 does not wait.
func TestLongPollUnknownJob(t *testing.T) {
	s, srv := longPollServer(t)
	a, _ := do(context.Background(), "GET", srv.URL+"/jobs/nope?wait=20s", "")
	if a.code != http.StatusNotFound {
		t.Fatalf("GET unknown id: %d %s", a.code, a.body)
	}
	if a.took > 5*time.Second || s.Snapshot().LongPolls != 0 {
		t.Fatalf("a 404 waited (%v, long_polls=%d)", a.took, s.Snapshot().LongPolls)
	}
}

// TestLongPollClientDisconnect: a client that hangs up mid-wait frees its
// handler at once, on GET and on POST (whose body has to have been read to
// its end for net/http to notice), and leaves the job alone.
func TestLongPollClientDisconnect(t *testing.T) {
	s, srv := longPollServer(t)
	pinWorker(t, s)
	queued := queueBehind(t, s)
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/jobs/" + queued.ID + "?wait=20s", ""},
		{"POST", "/jobs?wait=20s", `{"program":"fib","n":10}`},
	} {
		ctx, hangUp := context.WithCancel(context.Background())
		failed := make(chan error, 1)
		go func() {
			_, err := do(ctx, tc.method, srv.URL+tc.path, tc.body)
			failed <- err
		}()
		waitWaiting(t, s, 1)
		hangUp()
		if err := <-failed; err == nil {
			t.Fatalf("%s: the cancelled request got an answer", tc.method)
		}
		waitWaiting(t, s, 0)
	}
	if st, _, _ := queued.Snapshot(); st != StateQueued {
		t.Fatalf("the job a departed client waited on is %s, want still queued", st)
	}
	if m := s.Snapshot(); m.LongPolls != 2 || m.LongPollTimeouts != 0 || m.InFlight != 3 {
		t.Fatalf("long_polls=%d long_poll_timeouts=%d in_flight=%d, want 2/0/3", m.LongPolls, m.LongPollTimeouts, m.InFlight)
	}
}

// waiter starts a long-poll GET on j and returns once its handler blocks.
func waiter(t *testing.T, s *Service, srv *httptest.Server, j *Job) <-chan answer {
	t.Helper()
	before := s.longPoll.waiting.Load()
	got := make(chan answer, 1)
	go func() {
		a, err := do(context.Background(), "GET", srv.URL+"/jobs/"+j.ID+"?wait=20s", "")
		if err != nil {
			t.Errorf("waiter on %s: %v", j.ID, err)
		}
		got <- a
	}()
	waitWaiting(t, s, before+1)
	return got
}

// TestLongPollDrain: Drain lets a waited-on running job finish, the waiter
// gets its result, and Drain returns — no waiter is left behind it.
func TestLongPollDrain(t *testing.T) {
	s, srv := longPollServer(t)
	j, err := s.Submit(Request{Program: "nqueens-array", N: 12})
	if err != nil {
		t.Fatal(err)
	}
	got := waiter(t, s, srv, j)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitWaiting(t, s, 0)
	if a := <-got; a.code != http.StatusOK || a.st.State != StateDone || a.st.Value == nil || *a.st.Value != 14200 {
		t.Fatalf("waiter across Drain: %d %s", a.code, a.body)
	}
}

// TestLongPollClose: Close settles a queued job, which answers its waiter
// with a terminal status well before the bound; nothing in the wait step
// knows about shutdown.
func TestLongPollClose(t *testing.T) {
	s, srv := longPollServer(t)
	blocker := pinWorker(t, s)
	queued := queueBehind(t, s)
	got := waiter(t, s, srv, queued)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	a := <-got
	if a.code != http.StatusOK || (a.st.State != StateFailed && a.st.State != StateCancelled) || a.st.Error == "" {
		t.Fatalf("waiter across Close: %d %s, want a failed or cancelled status", a.code, a.body)
	}
	if a.took > 10*time.Second {
		t.Fatalf("waiter across Close answered after %v", a.took)
	}
	// Close lets the running job finish; do not make it the long way.
	blocker.Cancel(ErrCancelled)
	<-closed
	if n := s.longPoll.waiting.Load(); n != 0 {
		t.Fatalf("long_poll_waiting = %d after Close", n)
	}
}

// TestLongPollCancelWakesWaiter: DELETE from one client answers another
// client's wait with the cancelled status.
func TestLongPollCancelWakesWaiter(t *testing.T) {
	s, srv := longPollServer(t)
	running := pinWorker(t, s)
	got := waiter(t, s, srv, running)
	if a := mustDo(t, "DELETE", srv.URL+"/jobs/"+running.ID, ""); a.code != http.StatusAccepted {
		t.Fatalf("DELETE: %d %s", a.code, a.body)
	}
	if a := <-got; a.code != http.StatusOK || a.st.State != StateCancelled {
		t.Fatalf("waiter after DELETE: %d %s, want cancelled", a.code, a.body)
	}
	waitWaiting(t, s, 0)
}
