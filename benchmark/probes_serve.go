package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc/internal/cluster"
	"adaptivetc/internal/serve"
)

// stages are the spans that, laid end to end, cover an HTTP op from the
// client's first byte to its verified answer.
var stages = []string{"serve.admit", "serve.queue", "serve.run", "serve.finalize", "client.poll_gap", "verify"}

// stageSumRatio is Σ stage durations ÷ Σ op durations over the traced ops.
// The stages telescope by construction, so the ratio leaves 1 only when
// stamps taken by different goroutines disagree and a stage is clipped at
// zero: it checks that the decomposition covers the op, no more.
func stageSumRatio(spans []span) float64 {
	isStage := map[string]bool{}
	for _, s := range stages {
		isStage[s] = true
	}
	var stageSum, opSum int64
	for _, s := range spans {
		switch {
		case s.Name == "op":
			opSum += s.End - s.Start
		case isStage[s.Name]:
			stageSum += s.End - s.Start
		}
	}
	return ratio(stageSum, opSum)
}

// inProcess submits kind straight to svc and waits for Done; it returns
// the time Submit took and the time to Done.
func inProcess(svc *serve.Service, kind jobKind) (submit, done time.Duration, err error) {
	t0 := time.Now()
	job, err := svc.Submit(kind.req)
	submit = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	<-job.Done()
	done = time.Since(t0)
	state, res, jerr := job.Snapshot()
	if state != serve.StateDone {
		return 0, 0, fmt.Errorf("job %s ended %s: %v", job.ID, state, jerr)
	}
	if !kind.witness && res.Value != kind.want {
		return 0, 0, fmt.Errorf("job %s: value %d, serial oracle %d", job.ID, res.Value, kind.want)
	}
	return submit, done, nil
}

// openLoopRate is the arrival rate of the open-loop phase, jobs per second:
// under half of what the closed loop sustains here, so the queue it shows
// is the arrival process's, not saturation.
const openLoopRate = 150

// probeServeHTTP replays a slice of serve-http with the span recorder on
// and reads the HTTP and service stages from the spans; then times the
// same service in process; then drives it open-loop on a seeded Poisson
// schedule, timing each job from the moment it was due.
func (p *probes) probeServeHTTP() error {
	loop, inst, err := newServeHTTP(p.seed)
	if err != nil {
		return err
	}
	defer inst.close()
	var seq atomic.Int64
	runWindow(inst, sliceBudget/4, nil, &seq)
	rec := newRecorder(inst.clients)
	win := runWindow(inst, sliceBudget, rec, &seq)
	if win.failed > 0 || len(win.ops) == 0 {
		return fmt.Errorf("traced slice: %d of %d ops failed: %v", win.failed, win.attempted, win.firstErr)
	}
	spans := rec.spans()
	us := func(name string) float64 { return p50of(spanDurations(spans, name), time.Microsecond) }
	p.set("http.submit_rtt_us_p50", us("http.submit"), "us")
	p.set("http.status_rtt_us_p50", us("http.status"), "us")
	p.set("http.polls_per_job", float64(len(spanDurations(spans, "http.status")))/float64(len(win.ops)), "count")
	p.set("client.poll_gap_us_p50", us("client.poll_gap"), "us")
	p.set("http.op_ms_p99", percentile(sortedCopy(durs(spanDurations(spans, "op"), time.Millisecond)), 0.99), "ms")
	p.set("serve.queue_wait_us_p50", us("serve.queue"), "us")
	p.set("serve.run_us_p50", us("serve.run"), "us")
	p.set("serve.finalize_us_p50", us("serve.finalize"), "us")
	p.set("serve.rejected_share", ratio(loop.rejected.Load(), int64(win.attempted)), "ratio")
	p.set("serve.stage_sum_ratio", stageSumRatio(spans), "ratio")

	kinds, err := registryKinds(serveHTTPJobs)
	if err != nil {
		return err
	}
	var submits, dones []time.Duration
	for i := 0; i < 10*len(kinds); i++ {
		s, d, err := inProcess(loop.srv.svc, kinds[i%len(kinds)])
		if err != nil {
			return err
		}
		submits, dones = append(submits, s), append(dones, d)
	}
	p.set("serve.submit_us_p50", p50of(submits, time.Microsecond), "us")
	p.set("serve.inproc.submit_done_us_p50", p50of(dones, time.Microsecond), "us")

	// Open loop: arrivals are due on a Poisson schedule whatever the
	// server does; the callers take them in order and a job's time runs
	// from when it was due, so a stall is charged to the jobs behind it.
	rng := rand.New(rand.NewSource(p.seed))
	var due []time.Duration
	for t := time.Duration(0); t < sliceBudget; t += time.Duration(rng.ExpFloat64() / openLoopRate * float64(time.Second)) {
		due = append(due, t)
	}
	sojourn, late := make([]time.Duration, len(due)), make([]time.Duration, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, loadClients())
	start := time.Now()
	for c := 0; c < loadClients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				time.Sleep(time.Until(start.Add(due[i])))
				late[i] = time.Since(start) - due[i]
				if _, err := loop.runJob(kinds[i%len(kinds)], int64(i), nil); err != nil && errs[c] == nil {
					errs[c] = err
				}
				sojourn[i] = time.Since(start) - due[i]
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
	}
	soj := sortedCopy(durs(sojourn, time.Millisecond))
	p.set("client.open.sojourn_ms_p50", percentile(soj, 0.50), "ms")
	p.set("client.open.sojourn_ms_p95", percentile(soj, 0.95), "ms")
	p.set("client.open.late_ms_p95", percentile(sortedCopy(durs(late, time.Millisecond)), 0.95), "ms")
	return nil
}

// forwardPoll is the interval a forwarding node first polls its peer at.
const forwardPoll = 2 * time.Millisecond

// probeForward times one forward hop: a job handed to a peer node through
// the cluster's HTTP transport and polled there to its end, as a
// forwarding node does, against the same job submitted in process.
func (p *probes) probeForward() error {
	svc := serve.New(serve.Config{Workers: workers()})
	mux := serve.NewMux(svc)
	srv, err := startServer(svc, mux)
	if err != nil {
		svc.Close()
		return err
	}
	defer srv.stop()
	cluster.Mount(mux, cluster.NewNode(cluster.Config{Self: srv.url}, svc, nil))
	kinds, err := registryKinds([]progSpec{{Program: "fib", N: 16}})
	if err != nil {
		return err
	}
	kind := kinds[0]
	tr := cluster.NewHTTPTransport(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	const jobs = 40
	var hops, direct []time.Duration
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		reply, err := tr.Forward(ctx, srv.url, cluster.ForwardRequest{Req: kind.req, Origin: "probe", Token: fmt.Sprintf("probe-%d-%d", p.seed, i)})
		if err != nil {
			return err
		}
		for {
			st, err := tr.Status(ctx, srv.url, reply.JobID)
			if err != nil {
				return err
			}
			if terminal(st.State) {
				if err := verifyStatus(kind, st); err != nil {
					return err
				}
				break
			}
			time.Sleep(forwardPoll)
		}
		hops = append(hops, time.Since(t0))
		_, d, err := inProcess(svc, kind)
		if err != nil {
			return err
		}
		direct = append(direct, d)
	}
	hop := p50of(hops, time.Millisecond)
	p.set("cluster.forward.submit_done_ms_p50", hop, "ms")
	p.set("cluster.forward.hop_overhead_ms", hop-p50of(direct, time.Millisecond), "ms")
	return nil
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// probeServeDurable replays a slice of serve-durable and reads what each
// job cost the journal and the compile cache, and the invariant checker's
// verdict count.
func (p *probes) probeServeDurable() error {
	d, inst, err := newServeDurable(p.seed, seedingJobs/10)
	if err != nil {
		return err
	}
	defer inst.close()
	var seq atomic.Int64
	runWindow(inst, sliceBudget/4, nil, &seq)
	fsyncs0, bytes0 := d.store.Fsyncs(), dirBytes(d.dir)
	win := runWindow(inst, sliceBudget, nil, &seq)
	if win.failed > 0 || len(win.ops) == 0 {
		return fmt.Errorf("durable slice: %d of %d ops failed: %v", win.failed, win.attempted, win.firstErr)
	}
	jobs := int64(len(win.ops))
	p.set("jobstore.fsyncs_per_job", ratio(d.store.Fsyncs()-fsyncs0, jobs), "count")
	p.set("jobstore.bytes_per_job", ratio(dirBytes(d.dir)-bytes0, jobs), "B")
	m := d.loop.srv.svc.Snapshot()
	p.set("progstore.hit_share", ratio(m.CompileHits, m.CompileHits+m.CompileMisses), "ratio")
	p.set("serve.violations", float64(m.InvariantViolations), "count")
	return nil
}
