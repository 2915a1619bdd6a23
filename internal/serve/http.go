package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"adaptivetc"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
	"adaptivetc/problems/registry"
)

// ProgramStatus is the JSON view of one cached DSL program. Source is
// the canonical form and is only populated by GET /programs/{hash}.
type ProgramStatus struct {
	progstore.Meta
	Source string `json:"source,omitempty"`
}

// JobStatus is the JSON view of one job (POST /jobs and GET /jobs/{id}).
type JobStatus struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Program string `json:"program,omitempty"`
	// ProgramHash identifies a DSL job's cached program (set instead of
	// Program for program_hash submissions).
	ProgramHash string    `json:"program_hash,omitempty"`
	Engine      string    `json:"engine"`
	Tenant      string    `json:"tenant"`
	Priority    Priority  `json:"priority"`
	Created     time.Time `json:"created"`

	// Cluster fields: Origin is the peer that forwarded the job here;
	// ForwardedTo/RemoteID point at the peer a forwarded job went to.
	Origin      string `json:"origin,omitempty"`
	ForwardedTo string `json:"forwarded_to,omitempty"`
	RemoteID    string `json:"remote_id,omitempty"`

	// Terminal-state fields.
	Value       *int64  `json:"value,omitempty"`
	Error       string  `json:"error,omitempty"`
	MakespanMS  float64 `json:"makespan_ms,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	Violations  string  `json:"invariant_violations,omitempty"`
	// Shard is the worker group the job ran on (absent until terminal, and
	// for jobs that never started).
	Shard []int `json:"shard,omitempty"`

	Stats *sched.Stats `json:"stats,omitempty"`
}

// status renders j for the API.
func status(j *Job) JobStatus {
	st, res, err := j.Snapshot()
	out := JobStatus{
		ID:          j.ID,
		State:       st,
		Program:     j.Req.Program,
		ProgramHash: j.Req.ProgramHash,
		Engine:      j.Req.engineName(),
		Tenant:      j.tenant,
		Priority:    j.prio,
		Created:     j.Created,
		Origin:      j.origin,
	}
	j.mu.Lock()
	out.ForwardedTo, out.RemoteID = j.remoteNode, j.remoteID
	j.mu.Unlock()
	if phase[st] != terminal {
		return out
	}
	if err != nil {
		out.Error = err.Error()
	}
	if st == StateDone {
		v := res.Value
		out.Value = &v
	}
	out.MakespanMS = float64(res.Makespan) / 1e6
	out.QueueWaitMS = float64(res.Stats.QueueWait) / 1e6
	out.Shard = res.Shard
	stats := res.Stats
	out.Stats = &stats
	if viol := j.Violations(); viol != nil {
		out.Violations = viol.Error()
	}
	return out
}

// NewMux returns the service's HTTP API:
//
//	POST   /jobs       submit (Request body; X-Tenant header overrides
//	                   req.Tenant) → 202 JobStatus; 400 on a malformed body
//	                   or bytes after the JSON object; 429 + Retry-After on
//	                   a full queue, tenant rate limit, or tenant quota; 503
//	                   while draining or closed
//	GET    /jobs/{id}  status and, once terminal, result → JobStatus
//	DELETE /jobs/{id}  cancel → 202 JobStatus
//	GET    /metrics    service counters → Metrics
//	GET    /catalog    available programs and engines
//	GET    /healthz    liveness: 200 while the process serves HTTP
//	GET    /readyz     readiness: 200 until Drain/Close, then 503
//
// Long-poll: POST /jobs and GET /jobs/{id} take ?wait=<duration> ("2s",
// "500ms"). A job that is not yet terminal then holds the request until
// the job settles, the wait (clamped to 30s) elapses, or the client
// goes away — whichever is first — and the answer is the job's status at
// that moment. Status codes do not change (POST 202, GET 200): the body's
// "state" says whether the job finished. Without wait, or with wait=0, the
// answer is immediate; a malformed or negative wait is a 400 and submits
// nothing. Waiting does not hold the job: DELETE from another client wakes
// the waiter with the cancelled status, and a waiter that disconnects
// leaves the job running.
//
// Programs as data (the DSL compile cache):
//
//	POST   /programs        {"name","source"} → 201 ProgramStatus on first
//	                        submission, 200 for a program already cached
//	                        under the same content hash; 400 with
//	                        {"error","line","col"} on a compile error
//	GET    /programs        cached programs, most recently used first
//	GET    /programs/{hash} metadata + canonical source → ProgramStatus
//	DELETE /programs/{hash} evict → 200; 404 unknown
//
// A cached program runs via POST /jobs with "program_hash" in place of
// "program"; engine, steal_policy, tenant, priority, timeout_ms and the
// n/m size knobs apply identically, and "first_solution": true selects
// first-solution mode.
func NewMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		// Compile diagnostics keep their source position in the payload.
		var le *lang.Error
		if errors.As(err, &le) {
			writeJSON(w, code, map[string]any{"error": le.Error(), "line": le.Line, "col": le.Col})
			return
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var req Request
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// Only io.EOF here means the object was the whole body. It also
		// means the body has been read to its end, which is when net/http
		// starts watching the connection: a client that hangs up mid-wait
		// cancels r.Context() only after that.
		if _, err := dec.Token(); err != io.EOF {
			writeErr(w, http.StatusBadRequest, errors.New("serve: request body has data after the JSON object"))
			return
		}
		if t := r.Header.Get("X-Tenant"); t != "" {
			req.Tenant = t
		}
		job, err := s.Submit(req)
		var rej *RejectionError
		switch {
		case errors.As(err, &rej):
			w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, wsrt.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrDraining), errors.Is(err, wsrt.ErrPoolClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.awaitJob(r, job, wait)
		writeJSON(w, http.StatusAccepted, status(job))
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
			return
		}
		s.awaitJob(r, job, wait)
		writeJSON(w, http.StatusOK, status(job))
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Cancel(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
			return
		}
		writeJSON(w, http.StatusAccepted, status(job))
	})

	mux.HandleFunc("POST /programs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if req.Source == "" {
			writeErr(w, http.StatusBadRequest, errors.New("serve: empty program source"))
			return
		}
		meta, created, err := s.PutProgram(req.Name, req.Source)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, ProgramStatus{Meta: meta})
	})

	mux.HandleFunc("GET /programs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"programs": s.Programs()})
	})

	mux.HandleFunc("GET /programs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		meta, src, ok := s.GetProgram(r.PathValue("hash"))
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such program"))
			return
		}
		writeJSON(w, http.StatusOK, ProgramStatus{Meta: meta, Source: src})
	})

	mux.HandleFunc("DELETE /programs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		if !s.DeleteProgram(r.PathValue("hash")) {
			writeErr(w, http.StatusNotFound, errors.New("serve: no such program"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})

	mux.HandleFunc("GET /catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"programs":     registry.Names(),
			"engines":      adaptivetc.PoolEngineNames(),
			"dsl_programs": s.Programs(),
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	return mux
}

// maxWait is the longest a ?wait= long-poll holds a request; longer asks
// are clamped to it. It sits below the idle timeouts of common proxies and
// of adaptivetc-loadgen's client, so a clamped wait still gets its answer.
const maxWait = 30 * time.Second

// parseWait reads the ?wait= long-poll bound: zero when absent, clamped to
// maxWait, an error when it is not a non-negative duration.
func parseWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("serve: wait=%q is not a non-negative duration such as 2s or 500ms", v)
	}
	return min(d, maxWait), nil
}

// awaitJob is the long-poll step of POST /jobs and GET /jobs/{id}: hold
// the request until job is terminal, wait has elapsed or the client has
// gone. There is no shutdown case because none is needed: Drain returns
// only once every job has settled and Close settles every job it finds
// (queued ones itself, the rest through their watchers), and finalize closes Done for each — so a
// waiter never outlives its job, and never outlives wait.
func (s *Service) awaitJob(r *http.Request, job *Job, wait time.Duration) {
	if wait <= 0 {
		return
	}
	select {
	case <-job.Done():
		return
	default:
	}
	s.longPoll.total.Add(1)
	s.longPoll.waiting.Add(1)
	defer s.longPoll.waiting.Add(-1)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-job.Done():
	case <-t.C:
		s.longPoll.timeouts.Add(1)
	case <-r.Context().Done():
	}
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 — the header has no sub-second form.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
