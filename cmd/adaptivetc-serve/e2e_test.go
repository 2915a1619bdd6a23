package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adaptivetc/internal/lang"
	"adaptivetc/internal/serve"
)

// binDir holds adaptivetc-serve and adaptivetc-loadgen, built on first use.
var binDir string
var build = sync.OnceValues(func() ([]byte, error) {
	return exec.Command("go", "build", "-o", binDir, ".", "../adaptivetc-loadgen").CombinedOutput()
})

func TestMain(m *testing.M) {
	var err error
	if binDir, err = os.MkdirTemp("", "adaptivetc-e2e"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func binary(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the commands")
	}
	if out, err := build(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return filepath.Join(binDir, name)
}

func freeURL(t *testing.T) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return "http://" + l.Addr().String()
}

type server struct {
	url string
	cmd *exec.Cmd
	out bytes.Buffer // stdout and stderr; read only after Wait
}

// startServe starts adaptivetc-serve on url and waits until it is ready.
func startServe(t *testing.T, url, args string) *server {
	t.Helper()
	s := &server{url: url}
	s.cmd = exec.Command(binary(t, "adaptivetc-serve"), append([]string{"-addr", strings.TrimPrefix(s.url, "http://")}, strings.Fields(args)...)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.kill() })
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(s.url + "/readyz"); err == nil && resp.Body.Close() == nil && resp.StatusCode == http.StatusOK {
			return s
		}
	}
	err := s.kill()
	t.Fatalf("%v not ready after 10s: %v\n%s", s.cmd.Args, err, s.out.String())
	return nil
}

// kill ends the process with SIGKILL and reaps it; once reaped, it does nothing.
func (s *server) kill() error { s.cmd.Process.Kill(); return s.cmd.Wait() }

// stop checks what every server must show: /healthz and /readyz answer 200,
// no invariant violation, exit status 0 after SIGTERM (1 on a violation).
func (s *server) stop(t *testing.T) {
	t.Helper()
	s.call(t, "GET", "/healthz", nil, http.StatusOK, new(any))
	s.call(t, "GET", "/readyz", nil, http.StatusOK, new(any))
	if m := s.metrics(t); m.InvariantViolations != 0 {
		t.Errorf("%s: invariant_violations = %d", s.url, m.InvariantViolations)
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	if err := s.cmd.Wait(); err != nil { // the drain is bounded by -drain-timeout
		t.Errorf("%s: %v after SIGTERM, want exit status 0\n%s", s.url, err, s.out.String())
	}
}

// call sends body (JSON unless nil), requires status want, decodes into out.
func (s *server) call(t *testing.T, method, path string, body any, want int, out any) {
	t.Helper()
	var blob []byte
	if body != nil {
		blob, _ = json.Marshal(body)
	}
	req, _ := http.NewRequest(method, s.url+path, bytes.NewReader(blob))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
}

func (s *server) metrics(t *testing.T) (m serve.Metrics) {
	t.Helper()
	s.call(t, "GET", "/metrics", nil, http.StatusOK, &m)
	return m
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err = cmp.Or(err, json.Unmarshal(blob, v)); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// loadReport is the part of adaptivetc-loadgen's -json report the tests read.
type loadReport struct {
	Mode, Arrival   string
	Completed, Lost int64
	PollTimeouts    int64                            `json:"poll_timeouts"`
	HTTPErrors      int64                            `json:"http_errors"`
	ByPriority      map[string]struct{ Count int64 } `json:"by_priority"`
	ByNode          map[string]json.RawMessage       `json:"by_node"`
}

// loadgen requires exit status 0 (1 when nothing completed) within a minute.
func loadgen(t *testing.T, args string) (r loadReport) {
	t.Helper()
	report := filepath.Join(t.TempDir(), "report.json")
	argv := append(strings.Fields(args), "-json", report)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if out, err := exec.CommandContext(ctx, binary(t, "adaptivetc-loadgen"), argv...).CombinedOutput(); err != nil {
		t.Fatalf("loadgen %s: %v\n%s", args, err, out)
	}
	readJSON(t, report, &r)
	return r
}

// TestE2ELoad runs a server and a 1 s loadgen pass (5 s before, same load) per row.
func TestE2ELoad(t *testing.T) {
	var bench struct {
		Sweep struct {
			Single struct {
				Throughput float64 `json:"throughput_jobs_per_sec"`
			} `json:"max_concurrent_jobs=1"`
		} `json:"serve_loadgen_sweep"`
	}
	readJSON(t, "../../BENCH_shards.json", &bench)
	// A lenient floor: absorbs a loaded host, catches serialised shards.
	shardFloor := 0.25 * bench.Sweep.Single.Throughput
	if shardFloor <= 0 {
		t.Fatal("BENCH_shards.json records no single-shard throughput")
	}

	for _, tc := range []struct {
		name, serve, loadgen string
		ok                   func(m serve.Metrics, r loadReport) bool
	}{
		{"resident_pool", "-workers 4 -queue 64 -check",
			"-concurrency 4 -duration 1s -programs nqueens-array,fib,knight -engines adaptivetc,cilk,slaw", nil},
		{"steal_half_relaxed", "-workers 4 -queue 64 -steal-policy steal-half -relaxed-deque -check",
			"-concurrency 4 -duration 1s -programs fib,nqueens-array,knight -engines adaptivetc,cilk,slaw",
			func(m serve.Metrics, _ loadReport) bool { return m.InvariantChecked > 0 }},
		{"two_shards", "-workers 4 -queue 64 -max-concurrent-jobs 2 -check",
			"-concurrency 8 -duration 1s -programs fib,nqueens-array -engines adaptivetc,cilk",
			func(m serve.Metrics, _ loadReport) bool {
				return m.MaxConcurrentJobs == 2 && m.ThroughputPerSecond >= shardFloor
			}},
		{"qos_two_tenants", "-workers 4 -queue 64 -check",
			"-concurrency 6 -duration 1s -programs fib,nqueens-array -engines adaptivetc,cilk -tenants frontend:interactive:1,analytics:batch:1",
			func(m serve.Metrics, r loadReport) bool {
				return m.Tenants["frontend"].Completed > 0 && m.Tenants["analytics"].Completed > 0 &&
					m.Priorities["interactive"].Completed > 0 && m.Priorities["batch"].Completed > 0 &&
					r.ByPriority["interactive"].Count > 0 && r.ByPriority["batch"].Count > 0 &&
					slices.Max(m.LatencyHistogram.Counts) > 0
			}},
		// -retain-jobs 1 evicts terminal records at once; 150/s × 1 s = 30/s × 5 s.
		// Every submit long-polls (?wait=), so no poll meets an evicted
		// record: loadgen's 404 rule is TestRunOnePollTerminalStatuses'
		// (cmd/adaptivetc-loadgen), not this row's.
		{"open_loop_evicting", "-workers 4 -queue 64 -retain-jobs 1",
			"-mode open -arrival poisson -rate 150 -duration 1s -programs fib -n 20 -engines adaptivetc -seed 3",
			func(_ serve.Metrics, r loadReport) bool {
				return r.Mode == "open" && r.Arrival == "poisson" && r.Completed >= 10 && r.PollTimeouts == 0 && r.HTTPErrors == 0
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServe(t, freeURL(t), tc.serve)
			r := loadgen(t, "-addr "+s.url+" "+tc.loadgen)
			m := s.metrics(t)
			t.Logf("server completed %d (%.0f/s), loadgen %d", m.Completed, m.ThroughputPerSecond, r.Completed)
			if m.Completed == 0 || tc.ok != nil && !tc.ok(m, r) {
				t.Errorf("completed 0 or the row's predicate false:\nmetrics %+v\nloadgen %+v", m, r)
			}
			s.stop(t)
		})
	}
}

// TestE2EFamilies runs one job per dataflow, branch-and-bound and first-solution
// family; the server counts a bogus first-solution witness as a violation.
func TestE2EFamilies(t *testing.T) {
	s := startServe(t, freeURL(t), "-workers 4 -queue 64 -check")
	var jobs [6]serve.JobStatus
	for i, body := range []string{
		`{"program":"dag-layered","n":4,"m":3,"engine":"adaptivetc"}`,
		`{"program":"dag-stencil","n":5,"m":5,"engine":"cilk"}`,
		`{"program":"bnb-knapsack","n":12,"engine":"slaw"}`,
		`{"program":"bnb-tsp","n":6,"engine":"helpfirst"}`,
		`{"program":"first-nqueens","n":7,"engine":"cilk-synched"}`,
		`{"program":"first-sat","n":10,"engine":"adaptivetc"}`,
	} {
		s.call(t, "POST", "/jobs?wait=10s", json.RawMessage(body), http.StatusAccepted, &jobs[i])
	}
	if m, st := s.metrics(t), jobs[4]; m.Completed != 6 || m.InvariantChecked == 0 || st.State != serve.StateDone || st.Value == nil || *st.Value <= 0 {
		t.Errorf("completed %d (want 6), invariant_checked %d (want > 0), first-nqueens %+v (want done with a witness > 0)", m.Completed, m.InvariantChecked, st)
	}
	s.stop(t)
}

// TestE2EProgramsCrashRecovery runs a DSL job by hash, SIGKILLs the server and
// restarts it on the same -store-dir, which must serve the result and the
// program again; loadgen's -dsl-file then submits by hash under load.
func TestE2EProgramsCrashRecovery(t *testing.T) {
	args := "-workers 4 -queue 64 -check -store-dir " + t.TempDir()
	s := startServe(t, freeURL(t), args)
	var prog, back serve.ProgramStatus
	var st, got serve.JobStatus
	if !t.Run("before_crash", func(t *testing.T) {
		s.call(t, "POST", "/programs", map[string]string{"name": "fib", "source": lang.FibSrc}, http.StatusCreated, &prog)
		s.call(t, "POST", "/jobs?wait=10s", map[string]any{"program_hash": prog.Hash, "n": 12, "engine": "adaptivetc"}, http.StatusAccepted, &st)
		m := s.metrics(t)
		if st.State != serve.StateDone || st.Value == nil || st.ProgramHash != prog.Hash || m.ProgramsCached < 1 || m.StoreRecords == 0 || m.InvariantViolations != 0 {
			t.Fatalf("job %+v (want done with a value and program_hash %s); programs_cached %d (want >= 1), store_records %d (want > 0), invariant_violations %d",
				st, prog.Hash, m.ProgramsCached, m.StoreRecords, m.InvariantViolations)
		}
	}) {
		return
	}
	s.kill()
	s = startServe(t, freeURL(t), args)
	if !t.Run("after_sigkill_restart", func(t *testing.T) {
		s.call(t, "GET", "/jobs/"+st.ID, nil, http.StatusOK, &got)
		s.call(t, "GET", "/programs/"+prog.Hash, nil, http.StatusOK, &back)
		m := s.metrics(t)
		if got.State != serve.StateDone || got.Value == nil || *got.Value != *st.Value || back.Hash != prog.Hash || back.Source == "" ||
			m.Recovery == nil || m.Recovery.Terminal < 1 || m.Recovery.Programs < 1 {
			t.Errorf("job %+v (want done, value %d), program %+v (want its source), recovery %+v (want terminal and programs >= 1)",
				got, *st.Value, back, m.Recovery)
		}
	}) {
		return
	}
	t.Run("dsl_file_load", func(t *testing.T) {
		src := filepath.Join(t.TempDir(), "fib.atc")
		if err := os.WriteFile(src, []byte(lang.FibSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		loadgen(t, "-addr "+s.url+" -concurrency 4 -duration 1s -programs fib -engines adaptivetc,slaw -dsl-file "+src)
		if m := s.metrics(t); m.Completed == 0 || m.CompileHits == 0 {
			t.Errorf("completed %d, compile_hits %d: want both > 0", m.Completed, m.CompileHits)
		}
		s.stop(t)
	})
}

// TestE2ECluster skews load 4:1 onto node A (one worker, a tiny queue) of two
// nodes: A must forward to B over HTTP and no job may be lost.
func TestE2ECluster(t *testing.T) {
	a, b := freeURL(t), freeURL(t)
	const common = " -gossip-interval 50ms -forward-threshold 2 -check"
	na := startServe(t, a, "-workers 1 -queue 4 -node-id "+a+" -peers "+b+common)
	nb := startServe(t, b, "-workers 2 -queue 32 -node-id "+b+" -peers "+a+common)
	r := loadgen(t, "-addr "+a+" -addr "+b+" -addr-weights 4,1 -concurrency 8 -duration 1s -programs fib -n 22 -engines adaptivetc -seed 5")
	ma, mb := na.metrics(t), nb.metrics(t)
	t.Logf("loadgen completed %d; A forwarded %d to B", r.Completed, ma.ForwardedOut)
	if ma.ForwardedOut == 0 || ma.ForwardedNow != 0 || mb.ForwardedIn == 0 || mb.Completed == 0 ||
		r.Completed == 0 || r.Lost != 0 || len(r.ByNode) != 2 {
		t.Errorf("want A forwarded_out > 0, forwarded_now 0; B forwarded_in, completed > 0; loadgen completed > 0, lost 0, two by_node:\nA %+v\nB %+v\nloadgen %+v", ma, mb, r)
	}
	na.stop(t)
	nb.stop(t)
}
