// Programs-as-data: the service side of the DSL program cache and the
// persistent job journal. POST /programs lands here (compile, cache,
// journal), job lifecycle transitions are journaled from service.go via
// the journal* helpers, and recover() materializes what a restart found
// in the store — terminal results served again, never-started jobs
// re-queued, mid-run jobs marked aborted-by-restart, programs
// re-compiled from their persisted canonical source.
package serve

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"time"

	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/sched"
)

// ErrAbortedByRestart is the terminal error recovery records on jobs that
// were mid-run when the server died: their partial work is gone (the pool
// holds no persistent state) and re-running silently would double-count
// side effects the client may have taken — resubmitting is the client's
// call.
var ErrAbortedByRestart = errors.New("serve: job aborted by server restart")

// PutProgram compiles and caches a DSL program, journaling it (durably)
// when it is new so a restart recovers the cache. Compile failures are
// position-annotated *lang.Error values.
func (s *Service) PutProgram(name, src string) (progstore.Meta, bool, error) {
	meta, created, err := s.programs.Put(name, src)
	if err != nil {
		return progstore.Meta{}, false, err
	}
	if created && s.journal != nil {
		_, canonical, _ := s.programs.Get(meta.Hash)
		if jerr := s.journal.AppendSync(&jobstore.Record{
			T: jobstore.TProgram, Hash: meta.Hash, Name: meta.Name, Source: canonical,
		}); jerr != nil {
			return progstore.Meta{}, false, jerr
		}
	}
	return meta, created, nil
}

// GetProgram returns a cached program's metadata and canonical source.
func (s *Service) GetProgram(hash string) (progstore.Meta, string, bool) {
	return s.programs.Get(hash)
}

// DeleteProgram evicts a cached program and journals the deletion.
func (s *Service) DeleteProgram(hash string) bool {
	if !s.programs.Delete(hash) {
		return false
	}
	if s.journal != nil {
		_ = s.journal.AppendSync(&jobstore.Record{T: jobstore.TProgDel, Hash: hash})
	}
	return true
}

// Programs lists the cached programs, most recently used first.
func (s *Service) Programs() []progstore.Meta { return s.programs.List() }

// journalSubmit records an admitted job durably: once the client's 202 is
// out, a restart must re-queue (or have finished) the job, never lose it.
func (s *Service) journalSubmit(job *Job) {
	if s.journal == nil {
		return
	}
	req, err := json.Marshal(job.Req)
	if err != nil {
		return
	}
	_ = s.journal.AppendSync(&jobstore.Record{T: jobstore.TSubmit, ID: job.ID, Req: req})
}

// journalStart records a job entering execution. Async on purpose: the
// record only affects how a crash classifies the job (aborted-by-restart
// versus re-queued), and programs are side-effect-free, so the tiny
// window where a started job could be re-run after a crash is safe —
// while an fsync here would serialize every job start.
func (s *Service) journalStart(job *Job) {
	if s.journal == nil {
		return
	}
	_ = s.journal.Append(&jobstore.Record{T: jobstore.TStart, ID: job.ID})
}

// journalDone records a job's terminal outcome durably; finalize calls it
// before publishing the state (acknowledge ⇒ durable).
func (s *Service) journalDone(job *Job, state State, res sched.Result, err error) {
	if s.journal == nil {
		return
	}
	rec := &jobstore.Record{
		T: jobstore.TDone, ID: job.ID, State: string(state),
		Value: res.Value, MakespanNS: res.Makespan,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	_ = s.journal.AppendSync(rec)
}

// recover materializes the journal's recovered state. Programs first (a
// re-queued job may reference one by hash), then jobs: terminal records
// become served results, submit-only jobs re-enter the queue with their
// IDs preserved, and submit+start jobs — mid-run at the crash — become
// failed with ErrAbortedByRestart, journaled terminal so the next restart
// recovers them directly.
func (s *Service) recover(rec *jobstore.Recovery) {
	if rec == nil {
		return
	}
	for _, p := range rec.Programs {
		if _, _, err := s.programs.Put(p.Name, p.Source); err == nil {
			s.recoveredPrograms.Add(1)
		}
	}
	// Resume job IDs past everything recovered, so new submissions never
	// collide with a journaled ID.
	maxID := int64(0)
	for _, j := range rec.Jobs {
		if n, err := strconv.ParseInt(strings.TrimPrefix(j.ID, "j"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	s.nextID.Store(maxID)

	for _, j := range rec.Jobs {
		var req Request
		if err := json.Unmarshal(j.Req, &req); err != nil {
			continue // unreadable request: nothing can be done with it
		}
		switch {
		case j.Done:
			s.materializeRecovered(j, req, State(j.State), nil)
			s.recoveredTerminal.Add(1)
		case j.Started:
			s.failRecovered(j.ID, req, ErrAbortedByRestart)
			s.recoveredAborted.Add(1)
		default:
			if _, err := s.admit(req, entry{from: fromJournal, id: j.ID}); err != nil {
				// Program gone from the registry, DSL hash unrecoverable:
				// failed, not silently dropped.
				s.failRecovered(j.ID, req, err)
			} else {
				s.recoveredRequeued.Add(1)
			}
		}
	}
}

// failRecovered settles a journaled job that cannot be finished as failed,
// and journals the verdict so that the next restart recovers it as terminal.
func (s *Service) failRecovered(id string, req Request, err error) {
	s.materializeRecovered(&jobstore.JobState{ID: id}, req, StateFailed, err)
	if s.journal != nil {
		_ = s.journal.Append(&jobstore.Record{
			T: jobstore.TDone, ID: id, State: string(StateFailed), Err: err.Error(),
		})
	}
}

// materializeRecovered installs a terminal job record reconstructed from
// the journal: pollable via GET /jobs/{id}, counted only in the recovery
// metrics (the submit/complete counters describe this process's work).
func (s *Service) materializeRecovered(j *jobstore.JobState, req Request, state State, errv error) {
	prio, perr := ParsePriority(req.Priority)
	if perr != nil {
		prio = PriorityBatch
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	job := &Job{
		ID:      j.ID,
		Req:     req,
		Created: time.Now(),
		tenant:  tenant,
		prio:    prio,
		cancel:  func(error) {}, // terminal: nothing left to cancel
		done:    make(chan struct{}),
	}
	res := sched.Result{Value: j.Value, Makespan: j.MakespanNS, Program: req.Program, Engine: req.Engine}
	if errv == nil && j.Err != "" {
		errv = errors.New(j.Err)
	}
	s.transition(job, state, func() { job.res, job.err = res, errv })
	// Through the same eviction as a job that ends here: a journal holding
	// more terminal jobs than RetainJobs leaves only the newest resident.
	s.retire(job)
	close(job.done)
}

// RecoveryStats is the restart-recovery summary exposed in Metrics.
type RecoveryStats struct {
	Terminal int64 `json:"terminal"`
	Requeued int64 `json:"requeued"`
	Aborted  int64 `json:"aborted"`
	Programs int64 `json:"programs"`
}
