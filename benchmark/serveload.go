package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/serve"
	"adaptivetc/problems/registry"
)

// pollGap is what the shipped loadgen sleeps between status polls. The
// client here sleeps only after an answer that is not terminal, and asks
// for ?wait=2s on every request: today's mux ignores the parameter, so a
// later long-poll shows its gain without an edit to this benchmark.
//
// Each sleep is drawn from the seed, uniformly between half and one and a
// half poll gaps. With a fixed gap every op time is a whole number of gaps
// plus turnaround, and a percentile that falls between two such steps jumps
// by a whole gap whenever the host shifts a few ops across one: op_ms_p95
// moved by 20–27 % from run to run. Spread over a gap, the same ops give a
// continuous distribution with the same mean.
const pollGap = 5 * time.Millisecond

// pollSleep is the n-th sleep of the op with schedule position k.
func pollSleep(seed, k int64, n int) time.Duration {
	// splitmix64 of the three numbers: cheap, and the same for the same op.
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 + uint64(n)*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return pollGap/2 + time.Duration(z%uint64(pollGap))
}

const waitQuery = "?wait=2s"

// opTimeout bounds one HTTP op; a job not terminal by then counts as failed.
const opTimeout = 20 * time.Second

// jobKind is one kind of job a serve workload submits, with its oracle.
type jobKind struct {
	req     serve.Request
	want    int64
	witness bool // first-solution job: the value is a witness to verify
	// variant marks the DSL job that first registers a never-seen source.
	variant bool
}

// serveHTTPJobs is the registry mix of the serve workloads: tiny jobs at
// the registry defaults, so submit and poll turnaround, not the scheduler,
// is what a window measures.
var serveHTTPJobs = []progSpec{
	{Program: "fib", N: 12},
	{Program: "fib", N: 16},
	{Program: "nqueens-array", N: 6},
	{Program: "nqueens-array", N: 8},
	{Program: "dag-stencil"},
	{Program: "bnb-knapsack"},
	{Program: "first-nqueens"},
}

var serveEngines = []string{"adaptivetc", "cilk"}

// registryKinds expands specs × engines into job kinds with serial oracles.
func registryKinds(specs []progSpec) ([]jobKind, error) {
	var kinds []jobKind
	for _, spec := range specs {
		s, err := solveSerial(spec)
		if err != nil {
			return nil, err
		}
		for _, eng := range serveEngines {
			kinds = append(kinds, jobKind{
				req:     serve.Request{Program: spec.Program, N: spec.N, M: spec.M, Size: spec.Size, Engine: eng},
				want:    s.want,
				witness: registry.FirstSolution(spec.Program),
			})
		}
	}
	return kinds, nil
}

// server is an in-process Service behind a loopback HTTP listener.
type server struct {
	svc  *serve.Service
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// startServer serves mux for svc on a free loopback port.
func startServer(svc *serve.Service, mux *http.ServeMux) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: mux}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed from stop
	}()
	return s, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, then closes the service.
func (s *server) stop() {
	_ = s.http.Close()
	<-s.done
	s.svc.Close()
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// httpLoop is the closed-loop HTTP caller shared by both serve workloads.
type httpLoop struct {
	srv    *server
	client *http.Client
	seed   int64 // draws the poll sleeps
	// rejected counts 429/503 answers.
	rejected atomic.Int64
}

func (h *httpLoop) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, h.srv.url+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func terminal(s serve.State) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCancelled
}

// runJob submits kind, polls it to a terminal state and verifies the
// answer; slept is how long it spent in poll gaps. With a trace it also
// records the server-side stages, read in-process from the job record once
// the job is over.
func (h *httpLoop) runJob(kind jobKind, k int64, tr *opTrace) (slept time.Duration, err error) {
	t0 := time.Now()
	var st serve.JobStatus
	code, err := h.do("POST", "/jobs"+waitQuery, kind.req, &st)
	tSubmitted := time.Now()
	tr.add("http.submit", t0, tSubmitted)
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			h.rejected.Add(1)
		}
		return 0, err
	}
	// Traced runs stamp the moment Job.Done closes, from a goroutine that
	// ends with the job (Service.Close settles every job).
	var job *serve.Job
	var doneAt chan time.Time
	if tr != nil {
		if j, ok := h.srv.svc.Get(st.ID); ok {
			job, doneAt = j, make(chan time.Time, 1)
			go func() {
				<-j.Done()
				doneAt <- time.Now()
			}()
		}
	}
	seen := tSubmitted
	for polls := 0; !terminal(st.State); polls++ {
		if time.Since(t0) > opTimeout {
			return slept, fmt.Errorf("job %s not terminal after %v", st.ID, opTimeout)
		}
		time.Sleep(pollSleep(h.seed, k, polls))
		ts := time.Now()
		slept += ts.Sub(seen)
		_, err := h.do("GET", "/jobs/"+st.ID+waitQuery, nil, &st)
		seen = time.Now()
		tr.add("http.status", ts, seen)
		if err != nil {
			return slept, err
		}
	}
	if job != nil {
		recordStages(tr, job, t0, <-doneAt, seen)
	}
	defer tr.span("verify")()
	return slept, verifyStatus(kind, st)
}

// recordStages adds the server-side spans of one job: the queue and run
// times the job record reports, laid end to end from the job's creation;
// what is left until Done closed (admission before the pool, invariant
// check, journal fsync, publication) as serve.finalize; and the time the
// answer was ready but the client had not seen it as client.poll_gap.
func recordStages(tr *opTrace, job *serve.Job, t0, doneAt, seen time.Time) {
	_, res, _ := job.Snapshot()
	queued := job.Created.Add(time.Duration(res.Stats.QueueWait))
	ran := queued.Add(time.Duration(res.Makespan))
	tr.add("serve.admit", t0, job.Created)
	tr.add("serve.queue", job.Created, queued)
	tr.add("serve.run", queued, ran)
	tr.add("serve.finalize", ran, doneAt)
	tr.add("client.poll_gap", doneAt, seen)
}

// verifyStatus checks a terminal status against the job kind's oracle.
func verifyStatus(kind jobKind, st serve.JobStatus) error {
	if st.State != serve.StateDone || st.Value == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Violations != "" {
		return fmt.Errorf("job %s: invariant violations: %s", st.ID, st.Violations)
	}
	if kind.witness {
		p := registry.Params{N: kind.req.N, M: kind.req.M, Size: kind.req.Size}
		if ok, checkable := registry.VerifyWitness(kind.req.Program, p, *st.Value); checkable && !ok {
			return fmt.Errorf("job %s: %d is not a solution of %s", st.ID, *st.Value, kind.req.Program)
		}
		if *st.Value == 0 {
			return fmt.Errorf("job %s: %s found no solution", st.ID, kind.req.Program)
		}
		return nil
	}
	if *st.Value != kind.want {
		return fmt.Errorf("job %s (%s/%s): value %d, serial oracle %d", st.ID, kind.req.Program+kind.req.ProgramHash, kind.req.Engine, *st.Value, kind.want)
	}
	return nil
}

func setupServeHTTP(seed int64) (*instance, error) {
	_, inst, err := newServeHTTP(seed)
	return inst, err
}

// newServeHTTP builds the serve-http workload: single-job pool, no
// journal, no check.
func newServeHTTP(seed int64) (*httpLoop, *instance, error) {
	kinds, err := registryKinds(serveHTTPJobs)
	if err != nil {
		return nil, nil, err
	}
	svc := serve.New(serve.Config{Workers: workers()})
	srv, err := startServer(svc, serve.NewMux(svc))
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	loop := &httpLoop{srv: srv, client: newClient(loadClients()), seed: seed}
	sched := newSchedule(seed, len(kinds))
	return loop, &instance{
		clients: loadClients(),
		op: func(_ int, k int64, tr *opTrace) (time.Duration, error) {
			return loop.runJob(kinds[sched.at(k)], k, tr)
		},
		close: func() {
			loop.client.CloseIdleConnections()
			srv.stop()
		},
	}, nil
}

// Durable workload shape.
const (
	// seedingJobs is the fixed pass set-up runs through a first Service
	// before reopening its journal, so setup_s carries the journal's read
	// side while the timed window carries the append side.
	seedingJobs = 500
	// durableCacheSize keeps the compile cache small enough that the
	// never-seen variants push entries out through the LRU path.
	durableCacheSize = 32
)

// dslJobs are the DSL programs run by hash: with the variant job, 8 of the
// 20 job kinds.
var dslJobs = []struct {
	source string
	n      []int
}{
	{"nqueens", []int{6, 7, 8}},
	{"fib", []int{12, 14, 16}},
	{"latin", []int{4}},
}

// tenants alternate over the job kinds: an interactive and a batch one.
var tenants = []struct{ name, priority string }{
	{"frontend", "interactive"},
	{"analytics", "batch"},
}

// durable is the state behind the serve-durable workload.
type durable struct {
	loop    *httpLoop
	dir     string
	store   *jobstore.Store
	kinds   []jobKind
	sched   *schedule
	seed    int64
	variant atomic.Int64 // how many never-seen sources were registered
	// fibOracle answers the variant job, a fib program at n=variantN.
	fibOracle int64
}

const variantN = 12

func setupServeDurable(seed int64) (*instance, error) {
	_, inst, err := newServeDurable(seed, seedingJobs)
	return inst, err
}

// variantSource is the built-in fib source plus an unused parameter whose
// value no earlier variant had: a new token stream, so a new content hash
// and a compile, at the same run cost.
func (d *durable) variantSource() string {
	return lang.FibSrc + fmt.Sprintf("\nparam variant = %d\n", d.seed<<20+d.variant.Add(1))
}

// openService opens (or reopens) the journal in d.dir and starts the fully
// switched-on service over it.
func (d *durable) openService() (*serve.Service, error) {
	store, rec, err := jobstore.Open(d.dir, jobstore.Config{})
	if err != nil {
		return nil, err
	}
	d.store = store
	return serve.New(serve.Config{
		Workers:           workers(),
		MaxConcurrentJobs: 2,
		Check:             true,
		Journal:           store,
		Recovered:         rec,
		ProgramCache:      progstore.Config{MaxPrograms: durableCacheSize},
	}), nil
}

// newServeDurable builds the serve-durable workload in a fresh directory
// under the working directory.
func newServeDurable(seed int64, seeding int) (*durable, *instance, error) {
	dir, err := makeScratch("journal-")
	if err != nil {
		return nil, nil, err
	}
	d := &durable{dir: dir, seed: seed}
	var svc *serve.Service
	fail := func(err error) (*durable, *instance, error) {
		if svc != nil {
			svc.Close()
		}
		if d.store != nil {
			_ = d.store.Close() // a second Close after a successful one only returns an error
		}
		removeScratch(dir)
		return nil, nil, err
	}

	// Job kinds: 12 registry kinds, then 8 DSL kinds addressed by hash.
	if d.kinds, err = registryKinds(serveHTTPJobs[:6]); err != nil {
		return fail(err)
	}
	if svc, err = d.openService(); err != nil {
		return fail(err)
	}
	for _, dj := range dslJobs {
		src := lang.Sources()[dj.source]
		meta, _, err := svc.PutProgram(dj.source, src)
		if err != nil {
			return fail(err)
		}
		for i, n := range dj.n {
			prog, err := lang.CompileProgram(dj.source, src, map[string]int64{"n": int64(n)})
			if err != nil {
				return fail(err)
			}
			want, _, err := serialValue(prog, false)
			if err != nil {
				return fail(err)
			}
			if dj.source == "fib" && n == variantN {
				d.fibOracle = want
			}
			d.kinds = append(d.kinds, jobKind{
				req:  serve.Request{ProgramHash: meta.Hash, N: n, Engine: serveEngines[i%len(serveEngines)]},
				want: want,
			})
		}
	}
	// The 20th kind first registers a never-seen source, then runs it.
	d.kinds = append(d.kinds, jobKind{variant: true, want: d.fibOracle,
		req: serve.Request{N: variantN, Engine: serveEngines[0]}})
	for i := range d.kinds {
		t := tenants[i%len(tenants)]
		d.kinds[i].req.Tenant, d.kinds[i].req.Priority = t.name, t.priority
	}
	d.sched = newSchedule(seed, len(d.kinds))

	// Seeding pass through the first service, in process (it fills the
	// journal; its latency is not the point), then close and reopen.
	for k := 0; k < seeding; k++ {
		kind := d.kinds[d.sched.at(int64(k))]
		if kind.variant {
			meta, _, err := svc.PutProgram("fib-variant", d.variantSource())
			if err != nil {
				return fail(fmt.Errorf("seeding job %d: %w", k, err))
			}
			kind.req.ProgramHash = meta.Hash
		}
		job, err := svc.Submit(kind.req)
		if err != nil {
			return fail(fmt.Errorf("seeding job %d: %w", k, err))
		}
		<-job.Done()
	}
	svc.Close()
	if err := d.store.Close(); err != nil {
		return fail(err)
	}
	if svc, err = d.openService(); err != nil {
		return fail(err)
	}
	srv, err := startServer(svc, serve.NewMux(svc))
	if err != nil {
		return fail(err)
	}
	d.loop = &httpLoop{srv: srv, client: newClient(loadClients()), seed: seed}
	return d, &instance{
		clients: loadClients(),
		op:      d.op,
		close: func() {
			d.loop.client.CloseIdleConnections()
			srv.stop()
			_ = d.store.Close()
			removeScratch(dir)
		},
	}, nil
}

func (d *durable) op(_ int, k int64, tr *opTrace) (time.Duration, error) {
	kind := d.kinds[d.sched.at(k)]
	if kind.variant {
		// Compile-miss path: register a source nobody has sent, then run it.
		var ps serve.ProgramStatus
		done := tr.span("http.put_program")
		_, err := d.loop.do("POST", "/programs", map[string]string{"name": "fib-variant", "source": d.variantSource()}, &ps)
		done()
		if err != nil {
			return 0, err
		}
		kind.req.ProgramHash = ps.Hash
	}
	return d.loop.runJob(kind, k, tr)
}

// scratchDir holds the journals of the durable workload and the probes,
// under the working directory so that a run writes nothing outside its
// checkout; every run removes what it created there.
const scratchDir = ".bench_tmp"

// makeScratch creates a fresh directory under scratchDir.
func makeScratch(prefix string) (string, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchDir, prefix)
}

// removeScratch removes dir, and scratchDir too once it is empty.
func removeScratch(dir string) {
	_ = os.RemoveAll(dir)
	_ = os.Remove(scratchDir) // fails, as it should, while another journal is there
}
