package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/sched"
)

// firstSolDSL maintains a packed path witness in taskprivate state: every
// apply shifts the chosen move in, every undo shifts it out, and the
// terminal value is the packed path plus one — always nonzero, so a
// first-solution run returns a recognizable witness.
const firstSolDSL = `
param n = 6
state w
terminal depth == n -> w + 1
moves 2
apply { w = w * 2 + m }
undo { w = (w - m) / 2 }
`

// postJSON posts v to url and decodes the response into out.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls GET /jobs/{id} until the job leaves queued/running.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, base+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		switch st.State {
		case StateQueued, StateRunning, StateForwarded:
			time.Sleep(5 * time.Millisecond)
		default:
			return st
		}
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestServeProgramLifecycle is the satellite end-to-end: submit a DSL
// program over HTTP, run it by hash on the pool (invariant checker on),
// hit the compile cache on resubmission, read back diagnostics for a
// broken program, 404 an unknown hash, delete and resubmit, and run a
// first-solution DSL job whose witness path flows through the
// truncation-tolerant checker.
func TestServeProgramLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueCapacity: 32, Check: true,
		Options: sched.Options{GrowableDeque: true}})
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewMux(s))
	t.Cleanup(srv.Close)

	// A syntax error answers 400 with a position, not a stack trace.
	var diag struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
	}
	code := postJSON(t, srv.URL+"/programs",
		map[string]string{"name": "broken", "source": "param n = 4\nterminal depth == n -> 1\nmoves n\napply { x = }\nundo { }"}, &diag)
	if code != http.StatusBadRequest || diag.Line != 4 || diag.Col < 1 {
		t.Fatalf("broken program: code=%d diag=%+v", code, diag)
	}

	// Submit-compile: the shipped fib example, as a client would write it.
	var meta ProgramStatus
	code = postJSON(t, srv.URL+"/programs", map[string]string{"name": "fib", "source": lang.FibSrc}, &meta)
	if code != http.StatusCreated || len(meta.Hash) != 64 {
		t.Fatalf("put fib: code=%d meta=%+v", code, meta)
	}
	// A reformatted copy is the same program: 200, same hash, compile hit.
	var meta2 ProgramStatus
	reformatted := "# fib, reformatted\n" + strings.ReplaceAll(lang.FibSrc, "\n", "\n\t \n")
	code = postJSON(t, srv.URL+"/programs", map[string]string{"name": "fib2", "source": reformatted}, &meta2)
	if code != http.StatusOK || meta2.Hash != meta.Hash {
		t.Fatalf("reformatted fib: code=%d hash=%s want %s", code, meta2.Hash, meta.Hash)
	}

	// Run by hash on two engines; both must agree with the registry build
	// of the identical source (byte-identical in-process compilation).
	var want int64
	{
		var reg JobStatus
		if code := postJSON(t, srv.URL+"/jobs", Request{Program: "atc-fib", N: 15}, &reg); code != http.StatusAccepted {
			t.Fatalf("registry atc-fib: %d", code)
		}
		st := waitDone(t, srv.URL, reg.ID)
		if st.State != StateDone || st.Value == nil {
			t.Fatalf("registry atc-fib: %+v", st)
		}
		want = *st.Value
	}
	for _, engine := range []string{"adaptivetc", "slaw"} {
		var job JobStatus
		code = postJSON(t, srv.URL+"/jobs", Request{ProgramHash: meta.Hash, N: 15, Engine: engine}, &job)
		if code != http.StatusAccepted {
			t.Fatalf("submit by hash (%s): %d", engine, code)
		}
		if job.ProgramHash != meta.Hash {
			t.Fatalf("job status lost the hash: %+v", job)
		}
		st := waitDone(t, srv.URL, job.ID)
		if st.State != StateDone || st.Value == nil || *st.Value != want {
			t.Fatalf("hash job on %s: %+v, want value %d", engine, st, want)
		}
		if st.Violations != "" {
			t.Fatalf("hash job on %s: invariant violations: %s", engine, st.Violations)
		}
	}

	// Bad submissions: unknown hash, and both program selectors at once.
	if code = postJSON(t, srv.URL+"/jobs", Request{ProgramHash: strings.Repeat("0", 64)}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown hash job: %d", code)
	}
	if code = postJSON(t, srv.URL+"/jobs", Request{Program: "fib", ProgramHash: meta.Hash}, nil); code != http.StatusBadRequest {
		t.Fatalf("both selectors: %d", code)
	}
	// Override of a parameter fib does not declare is a client error.
	if code = postJSON(t, srv.URL+"/jobs", Request{ProgramHash: meta.Hash, M: 3}, nil); code != http.StatusBadRequest {
		t.Fatalf("undeclared param override: %d", code)
	}

	// Catalog and lookup endpoints.
	var got ProgramStatus
	if code = getJSON(t, srv.URL+"/programs/"+meta.Hash, &got); code != http.StatusOK || got.Source == "" {
		t.Fatalf("get program: code=%d %+v", code, got)
	}
	if code = getJSON(t, srv.URL+"/programs/"+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Fatalf("get unknown program: %d", code)
	}

	// First-solution DSL: the witness path (packed moves) survives the
	// run and the truncation-tolerant invariant check.
	var fsMeta ProgramStatus
	if code = postJSON(t, srv.URL+"/programs", map[string]string{"name": "first-path", "source": firstSolDSL}, &fsMeta); code != http.StatusCreated {
		t.Fatalf("put first-sol program: %d", code)
	}
	var fsJob JobStatus
	if code = postJSON(t, srv.URL+"/jobs", Request{ProgramHash: fsMeta.Hash, FirstSolution: true}, &fsJob); code != http.StatusAccepted {
		t.Fatalf("submit first-sol: %d", code)
	}
	st := waitDone(t, srv.URL, fsJob.ID)
	if st.State != StateDone || st.Value == nil || *st.Value < 1 {
		t.Fatalf("first-solution DSL job: %+v", st)
	}
	if st.Violations != "" {
		t.Fatalf("first-solution DSL job violations: %s", st.Violations)
	}

	// Metrics: cache populated, hits recorded, no invariant violations.
	var m Metrics
	if code = getJSON(t, srv.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.ProgramsCached != 2 || m.CompileHits < 2 || m.CompileMisses < 2 {
		t.Fatalf("cache metrics: cached=%d hits=%d misses=%d", m.ProgramsCached, m.CompileHits, m.CompileMisses)
	}
	if m.InvariantViolations != 0 || m.InvariantChecked == 0 {
		t.Fatalf("invariants: checked=%d violations=%d", m.InvariantChecked, m.InvariantViolations)
	}

	// Evict and resubmit: delete frees the hash, jobs against it fail,
	// resubmission re-creates the entry under the same identity.
	resp, err := http.NewRequest(http.MethodDelete, srv.URL+"/programs/"+meta.Hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(resp)
	if err != nil || dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete program: %v %d", err, dresp.StatusCode)
	}
	dresp.Body.Close()
	if code = postJSON(t, srv.URL+"/jobs", Request{ProgramHash: meta.Hash}, nil); code != http.StatusBadRequest {
		t.Fatalf("job against deleted hash: %d", code)
	}
	var meta3 ProgramStatus
	if code = postJSON(t, srv.URL+"/programs", map[string]string{"name": "fib", "source": lang.FibSrc}, &meta3); code != http.StatusCreated || meta3.Hash != meta.Hash {
		t.Fatalf("resubmit after delete: code=%d hash=%s want %s", code, meta3.Hash, meta.Hash)
	}
}

// TestServeJournalRecovery: a service with a journal completes DSL and
// registry jobs, shuts down, and a second service on the same directory
// serves those results, recovers the program cache, and keeps minting
// fresh job IDs past the recovered ones. Close-and-reopen stands in for
// the crash: for an append-only log the two differ only in the torn
// tail, which the jobstore fuzz covers.
func TestServeJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	js, rec, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Fatalf("fresh dir recovered %d records", rec.Records)
	}
	s := New(Config{Workers: 2, QueueCapacity: 16, Journal: js, Recovered: rec,
		Options: sched.Options{GrowableDeque: true}})

	meta, created, err := s.PutProgram("fib", lang.FibSrc)
	if err != nil || !created {
		t.Fatalf("PutProgram: created=%v err=%v", created, err)
	}
	dslJob, err := s.Submit(Request{ProgramHash: meta.Hash, N: 12})
	if err != nil {
		t.Fatalf("submit DSL job: %v", err)
	}
	regJob, err := s.Submit(Request{Program: "fib", N: 10})
	if err != nil {
		t.Fatalf("submit registry job: %v", err)
	}
	<-dslJob.Done()
	<-regJob.Done()
	_, dslRes, err := dslJob.Snapshot()
	if err != nil {
		t.Fatalf("DSL job failed: %v", err)
	}
	_, regRes, err := regJob.Snapshot()
	if err != nil || regRes.Value != 55 {
		t.Fatalf("registry job: value=%d err=%v", regRes.Value, err)
	}
	s.Close()
	if err := js.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	// Restart on the same directory.
	js2, rec2, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, QueueCapacity: 16, Journal: js2, Recovered: rec2,
		Options: sched.Options{GrowableDeque: true}})
	t.Cleanup(func() { s2.Close(); js2.Close() })

	for _, tc := range []struct {
		id   string
		want int64
	}{{dslJob.ID, dslRes.Value}, {regJob.ID, regRes.Value}} {
		j, ok := s2.Get(tc.id)
		if !ok {
			t.Fatalf("job %s not recovered", tc.id)
		}
		st, res, err := j.Snapshot()
		if st != StateDone || err != nil || res.Value != tc.want {
			t.Fatalf("recovered %s: state=%s value=%d err=%v, want done/%d", tc.id, st, res.Value, err, tc.want)
		}
	}
	if _, src, ok := s2.GetProgram(meta.Hash); !ok || src == "" {
		t.Fatalf("program %s not recovered", meta.Hash)
	}
	m := s2.Snapshot()
	if m.Recovery == nil || m.Recovery.Terminal != 2 || m.Recovery.Programs != 1 {
		t.Fatalf("recovery stats: %+v", m.Recovery)
	}
	// The recovered cache serves jobs, and new IDs never collide.
	again, err := s2.Submit(Request{ProgramHash: meta.Hash, N: 12})
	if err != nil {
		t.Fatalf("submit on recovered cache: %v", err)
	}
	if again.ID == dslJob.ID || again.ID == regJob.ID {
		t.Fatalf("recycled job ID %s", again.ID)
	}
	<-again.Done()
	if _, res, err := again.Snapshot(); err != nil || res.Value != dslRes.Value {
		t.Fatalf("post-recovery DSL run: value=%d err=%v want %d", res.Value, err, dslRes.Value)
	}
}

// TestServeRecoveryRequeueAndAbort drives the two non-terminal recovery
// paths with a hand-written journal: a submitted-never-started job is
// re-queued (same ID) and runs to completion; a submitted-and-started
// job is settled as failed with ErrAbortedByRestart — and that verdict
// is itself journaled, so a third open recovers it as terminal.
func TestServeRecoveryRequeueAndAbort(t *testing.T) {
	dir := t.TempDir()
	js, _, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(js.Append(&jobstore.Record{T: jobstore.TSubmit, ID: "j1", Req: json.RawMessage(`{"program":"fib","n":10}`)}))
	must(js.Append(&jobstore.Record{T: jobstore.TSubmit, ID: "j2", Req: json.RawMessage(`{"program":"fib","n":12}`)}))
	must(js.Append(&jobstore.Record{T: jobstore.TStart, ID: "j2"}))
	must(js.Close())

	js2, rec, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, QueueCapacity: 16, Journal: js2, Recovered: rec,
		Options: sched.Options{GrowableDeque: true}})

	j1, ok := s.Get("j1")
	if !ok {
		t.Fatal("j1 not re-queued")
	}
	<-j1.Done()
	if st, res, err := j1.Snapshot(); st != StateDone || err != nil || res.Value != 55 {
		t.Fatalf("re-queued j1: state=%s value=%d err=%v", st, res.Value, err)
	}
	j2, ok := s.Get("j2")
	if !ok {
		t.Fatal("j2 not recovered")
	}
	if st, _, err := j2.Snapshot(); st != StateFailed || err == nil || !strings.Contains(err.Error(), "restart") {
		t.Fatalf("mid-run j2: state=%s err=%v, want failed/aborted-by-restart", st, err)
	}
	m := s.Snapshot()
	if m.Recovery == nil || m.Recovery.Requeued != 1 || m.Recovery.Aborted != 1 {
		t.Fatalf("recovery stats: %+v", m.Recovery)
	}
	// IDs resume past the recovered ones.
	j3, err := s.Submit(Request{Program: "fib", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == "j1" || j3.ID == "j2" {
		t.Fatalf("recycled ID %s", j3.ID)
	}
	<-j3.Done()
	s.Close()
	must(js2.Close())

	// Third open: the abort verdict was journaled, so j2 is terminal now
	// (no double-abort), and j1's completion is durable.
	js3, rec3, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{Workers: 1, QueueCapacity: 4, Journal: js3, Recovered: rec3,
		Options: sched.Options{GrowableDeque: true}})
	t.Cleanup(func() { s3.Close(); js3.Close() })
	m3 := s3.Snapshot()
	if m3.Recovery == nil || m3.Recovery.Terminal != 3 || m3.Recovery.Requeued != 0 || m3.Recovery.Aborted != 0 {
		t.Fatalf("third-open recovery stats: %+v", m3.Recovery)
	}
	j2r, ok := s3.Get("j2")
	if !ok {
		t.Fatal("j2 lost on third open")
	}
	if st, _, err := j2r.Snapshot(); st != StateFailed || err == nil || !strings.Contains(err.Error(), "restart") {
		t.Fatalf("third-open j2: state=%s err=%v", st, err)
	}
}

// TestServeRecoveryUnrecoverableJob: a journaled job whose program cannot
// be rebuilt (its DSL hash is gone) settles as failed, not lost and not
// silently dropped.
func TestServeRecoveryUnrecoverableJob(t *testing.T) {
	dir := t.TempDir()
	js, _, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hash := strings.Repeat("a", 64)
	req := fmt.Sprintf(`{"program_hash":%q,"n":10}`, hash)
	if err := js.Append(&jobstore.Record{T: jobstore.TSubmit, ID: "j1", Req: json.RawMessage(req)}); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	js2, rec, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueCapacity: 4, Journal: js2, Recovered: rec,
		Options: sched.Options{GrowableDeque: true}})
	t.Cleanup(func() { s.Close(); js2.Close() })
	j, ok := s.Get("j1")
	if !ok {
		t.Fatal("unrecoverable job dropped without a record")
	}
	if st, _, err := j.Snapshot(); st != StateFailed || err == nil {
		t.Fatalf("unrecoverable job: state=%s err=%v, want failed", st, err)
	}
}

// TestServeRecoveryHonoursRetainJobs: a restart on a journal holding more
// terminal jobs than RetainJobs keeps only the newest RetainJobs of them
// pollable — from the first request on, not only once a new job happens to
// finish and trims the rest.
func TestServeRecoveryHonoursRetainJobs(t *testing.T) {
	const retain, total = 20, 70
	dir := t.TempDir()
	js, _, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= total; i++ {
		id := fmt.Sprintf("j%d", i)
		for _, rec := range []*jobstore.Record{
			{T: jobstore.TSubmit, ID: id, Req: json.RawMessage(`{"program":"fib","n":10}`)},
			{T: jobstore.TDone, ID: id, State: string(StateDone), Value: 55},
		} {
			if err := js.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	js2, rec, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, RetainJobs: retain, Journal: js2, Recovered: rec})
	t.Cleanup(func() { s.Close(); js2.Close() })

	pollable := 0
	for i := 1; i <= total; i++ {
		j, ok := s.Get(fmt.Sprintf("j%d", i))
		if !ok {
			continue
		}
		pollable++
		if i <= total-retain {
			t.Errorf("j%d is resident: eviction must drop the oldest records first", i)
		}
		select {
		case <-j.Done():
		default:
			t.Errorf("recovered j%d is not Done", i)
		}
		if st, res, err := j.Snapshot(); st != StateDone || err != nil || res.Value != 55 {
			t.Errorf("recovered j%d: state=%s value=%d err=%v, want done/55", i, st, res.Value, err)
		}
	}
	if pollable != retain {
		t.Fatalf("%d recovered jobs are pollable, want exactly RetainJobs=%d", pollable, retain)
	}
	if m := s.Snapshot(); m.Recovery == nil || m.Recovery.Terminal != total || m.InFlight != 0 || m.Submitted != 0 {
		t.Fatalf("recovery=%+v in_flight=%d submitted=%d, want %d terminal and no work counted", m.Recovery, m.InFlight, m.Submitted, total)
	}
}
