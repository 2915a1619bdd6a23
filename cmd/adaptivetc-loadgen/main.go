// Command adaptivetc-loadgen drives an adaptivetc-serve instance with
// either a closed-loop or an open-loop workload.
//
// Closed loop (-mode closed, the default): C submitter goroutines each
// submit one job, long-poll it to completion (?wait= on the submit and on
// every status request, so the answer arrives when the job settles, not a
// poll interval later), and immediately submit the next, for a fixed
// duration. Simple, but the measured latency suffers from
// coordinated omission: a slow server slows the submitters down, so the
// worst periods receive the fewest samples.
//
// Open loop (-mode open): submissions follow an arrival process (-arrival
// poisson|uniform|bursty|diurnal at -rate jobs/s) that does not care how
// the server is doing, and each job's latency is measured from its
// *intended* arrival time — the coordinated-omission-resistant number a
// real client population would experience. -max-outstanding bounds the
// in-flight jobs; arrivals past the bound are counted as dropped rather
// than silently deferred.
//
// Multi-tenant QoS mixes: -tenants "name:priority:weight,..." splits the
// load across tenants and priority classes (weights are relative arrival
// shares); each submission carries its tenant (X-Tenant) and priority, and
// the report breaks latency down per priority class.
//
// Multi-node targets: -addr repeats. Submissions round-robin across the
// targets and the report (and -json file) breaks counts and latency down
// per node — the shape a cluster-tier benchmark needs. -addr-weights
// skews the round-robin (e.g. "4,1" sends 80% of arrivals to the first
// node) to manufacture the hot/cold imbalance forwarding should fix.
//
// DSL programs: -dsl-file path/to/prog.atc POSTs the source to every
// target's /programs at startup and mixes the returned content hash into
// the program rotation as a program_hash submission — the load a
// programs-as-data deployment actually sees.
//
// Usage:
//
//	adaptivetc-loadgen -addr http://localhost:8080 -concurrency 8 -duration 10s
//	adaptivetc-loadgen -mode open -arrival poisson -rate 50 -duration 10s \
//	    -tenants "frontend:interactive:1,analytics:batch:1" -json out.json
//	adaptivetc-loadgen -addr http://127.0.0.1:8331 -addr http://127.0.0.1:8332 \
//	    -addr-weights 4,1 -mode open -rate 40 -duration 10s
//
// The report prints completed/cancelled/failed/rejected/lost counts,
// throughput, overall and per-priority p50/p90/p99 latency, and the
// server's shard configuration from /metrics. -json writes the same
// report as a machine-readable file (see BENCH_qos.json).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

type counters struct {
	completed    atomic.Int64
	cancelled    atomic.Int64
	failed       atomic.Int64
	rejected     atomic.Int64
	httpErrs     atomic.Int64
	lost         atomic.Int64 // poll saw 404: the record was evicted
	pollTimeouts atomic.Int64
	dropped      atomic.Int64 // open loop: arrival past -max-outstanding
}

// addrList is the repeatable -addr flag.
type addrList []string

func (a *addrList) String() string { return strings.Join(*a, ",") }
func (a *addrList) Set(v string) error {
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			*a = append(*a, p)
		}
	}
	return nil
}

// targetRing spreads submissions across the -addr targets in a weighted
// round-robin: a weights vector like 4,1 repeats node 0 four times per
// cycle — the skew knob cluster benchmarks use.
type targetRing struct {
	slots []string
	next  atomic.Int64
}

func newTargetRing(addrs []string, weights string) (*targetRing, error) {
	r := &targetRing{}
	if weights == "" {
		r.slots = addrs
		return r, nil
	}
	parts := strings.Split(weights, ",")
	if len(parts) != len(addrs) {
		return nil, fmt.Errorf("loadgen: %d -addr targets but %d -addr-weights", len(addrs), len(parts))
	}
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("loadgen: bad weight %q", p)
		}
		for k := 0; k < w; k++ {
			r.slots = append(r.slots, addrs[i])
		}
	}
	return r, nil
}

func (r *targetRing) pick() string {
	return r.slots[int(r.next.Add(1)-1)%len(r.slots)]
}

// nodeSet collects the per-target breakdown for multi-addr runs.
type nodeSet struct {
	mu sync.Mutex
	m  map[string]*nodeAgg
}

type nodeAgg struct {
	submitted, completed, cancelled, failed, rejected, errors int64
	lat                                                       []time.Duration
}

func newNodeSet() *nodeSet { return &nodeSet{m: make(map[string]*nodeAgg)} }

func (ns *nodeSet) record(addr, outcome string, d time.Duration) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	a := ns.m[addr]
	if a == nil {
		a = &nodeAgg{}
		ns.m[addr] = a
	}
	a.submitted++
	switch outcome {
	case "done":
		a.completed++
		a.lat = append(a.lat, d)
	case "cancelled":
		a.cancelled++
	case "failed":
		a.failed++
	case "rejected":
		a.rejected++
	default:
		a.errors++
	}
}

// nodeReport is the per-target slice of the -json report.
type nodeReport struct {
	Submitted int64            `json:"submitted"`
	Completed int64            `json:"completed"`
	Cancelled int64            `json:"cancelled"`
	Failed    int64            `json:"failed"`
	Rejected  int64            `json:"rejected"`
	Errors    int64            `json:"errors"`
	Latency   percentileReport `json:"latency"`
}

// tenantSpec is one entry of the -tenants mix.
type tenantSpec struct {
	name     string
	priority string
	weight   int
}

// parseTenants parses "name:priority:weight,..." (weight optional,
// default 1; priority optional, default batch).
func parseTenants(s string) ([]tenantSpec, error) {
	if s == "" {
		return []tenantSpec{{name: "default", priority: "batch", weight: 1}}, nil
	}
	var out []tenantSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		t := tenantSpec{name: fields[0], priority: "batch", weight: 1}
		if t.name == "" {
			return nil, fmt.Errorf("loadgen: empty tenant name in %q", part)
		}
		if len(fields) > 1 && fields[1] != "" {
			t.priority = fields[1]
		}
		if len(fields) > 2 {
			w, err := strconv.Atoi(fields[2])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("loadgen: bad weight in %q", part)
			}
			t.weight = w
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("loadgen: too many fields in %q", part)
		}
		out = append(out, t)
	}
	return out, nil
}

// pickTenant draws a tenant from the mix with probability proportional to
// its weight.
func pickTenant(rng *rand.Rand, mix []tenantSpec) tenantSpec {
	total := 0
	for _, t := range mix {
		total += t.weight
	}
	k := rng.Intn(total)
	for _, t := range mix {
		if k < t.weight {
			return t
		}
		k -= t.weight
	}
	return mix[len(mix)-1]
}

// arrivalGen produces the open-loop arrival offsets for one run. The
// non-homogeneous processes (bursty, diurnal) are generated by thinning a
// Poisson stream at the peak rate, so every process with the same seed is
// reproducible.
type arrivalGen struct {
	kind   string
	rate   float64 // mean arrivals per second
	period time.Duration
	rng    *rand.Rand
	t      time.Duration // current virtual offset from the run start
}

// next advances to and returns the next arrival offset.
func (g *arrivalGen) next() time.Duration {
	switch g.kind {
	case "uniform":
		g.t += time.Duration(float64(time.Second) / g.rate)
	case "poisson":
		g.t += time.Duration(g.rng.ExpFloat64() / g.rate * float64(time.Second))
	case "bursty", "diurnal":
		peak := g.peakRate()
		for {
			g.t += time.Duration(g.rng.ExpFloat64() / peak * float64(time.Second))
			if g.rng.Float64() < g.rateAt(g.t)/peak {
				break
			}
		}
	default:
		panic("loadgen: unknown arrival process " + g.kind)
	}
	return g.t
}

func (g *arrivalGen) peakRate() float64 {
	if g.kind == "bursty" {
		return 4 * g.rate
	}
	return 1.8 * g.rate // diurnal peak: rate * (1 + 0.8)
}

// rateAt is the instantaneous rate of the non-homogeneous processes.
// bursty: the whole mean load compressed into the first quarter of each
// period (4x rate, then silence). diurnal: a sinusoid around the mean.
func (g *arrivalGen) rateAt(t time.Duration) float64 {
	period := g.period
	if period <= 0 {
		period = time.Second
	}
	phase := float64(t%period) / float64(period)
	switch g.kind {
	case "bursty":
		if phase < 0.25 {
			return 4 * g.rate
		}
		return 0
	case "diurnal":
		return g.rate * (1 + 0.8*math.Sin(2*math.Pi*phase))
	}
	return g.rate
}

// pctDur returns the nearest-rank percentile of a sorted sample: the
// smallest retained value ≥ p of the distribution. The truncating
// int(p*(n-1)) form this replaces reported ~p96 as p99 on 50 samples.
func pctDur(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// latencySet collects per-priority latency samples.
type latencySet struct {
	mu      sync.Mutex
	overall []time.Duration
	byPrio  map[string][]time.Duration
}

func newLatencySet() *latencySet {
	return &latencySet{byPrio: make(map[string][]time.Duration)}
}

func (l *latencySet) add(prio string, d time.Duration) {
	l.mu.Lock()
	l.overall = append(l.overall, d)
	l.byPrio[prio] = append(l.byPrio[prio], d)
	l.mu.Unlock()
}

// percentileReport is the JSON latency summary for one sample set.
type percentileReport struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

func summarize(samples []time.Duration) percentileReport {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return percentileReport{
		Count: int64(len(sorted)),
		P50MS: ms(pctDur(sorted, 0.50)),
		P90MS: ms(pctDur(sorted, 0.90)),
		P99MS: ms(pctDur(sorted, 0.99)),
	}
}

// report is the full machine-readable run summary (-json).
type report struct {
	Mode            string                      `json:"mode"`
	Arrival         string                      `json:"arrival,omitempty"`
	RatePerSec      float64                     `json:"rate_per_sec,omitempty"`
	Concurrency     int                         `json:"concurrency,omitempty"`
	DurationSeconds float64                     `json:"duration_seconds"`
	Completed       int64                       `json:"completed"`
	Cancelled       int64                       `json:"cancelled"`
	Failed          int64                       `json:"failed"`
	Rejected        int64                       `json:"rejected"`
	Lost            int64                       `json:"lost"`
	PollTimeouts    int64                       `json:"poll_timeouts"`
	HTTPErrors      int64                       `json:"http_errors"`
	Dropped         int64                       `json:"dropped"`
	ThroughputPerS  float64                     `json:"throughput_per_sec"`
	Latency         percentileReport            `json:"latency"`
	ByPriority      map[string]percentileReport `json:"by_priority,omitempty"`
	ByNode          map[string]nodeReport       `json:"by_node,omitempty"`
	Server          json.RawMessage             `json:"server_metrics,omitempty"`
	ServerByNode    map[string]json.RawMessage  `json:"server_metrics_by_node,omitempty"`
}

func main() {
	var addrs addrList
	flag.Var(&addrs, "addr", "serve base URL; repeat (or comma-separate) for multi-node round-robin")
	addrWeights := flag.String("addr-weights", "", "comma-separated round-robin weights, one per -addr (skews the node mix)")
	mode := flag.String("mode", "closed", "load model: closed (submitters) or open (arrival process)")
	concurrency := flag.Int("concurrency", 4, "closed loop: submitter count")
	rate := flag.Float64("rate", 20, "open loop: mean arrival rate, jobs/s")
	arrival := flag.String("arrival", "poisson", "open loop: arrival process (poisson|uniform|bursty|diurnal)")
	period := flag.Duration("arrival-period", time.Second, "open loop: bursty/diurnal modulation period")
	maxOutstanding := flag.Int("max-outstanding", 256, "open loop: in-flight cap; arrivals past it are dropped")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	programs := flag.String("programs", "nqueens-array,fib,knight,dag-stencil,bnb-tsp,first-nqueens", "comma-separated program mix")
	dslFile := flag.String("dsl-file", "", "path to a DSL source file: POSTed to every target's /programs at startup and mixed into the load as a program_hash submission")
	engines := flag.String("engines", "adaptivetc,cilk,slaw", "comma-separated engine mix")
	tenants := flag.String("tenants", "", "tenant mix: name:priority:weight,... (default one batch tenant)")
	n := flag.Int("n", 0, "problem size override (0 = per-family default)")
	timeoutMS := flag.Int64("job-timeout-ms", 30000, "per-job deadline sent with each submission")
	seed := flag.Int64("seed", 1, "rng seed for arrivals and mix choices")
	jsonPath := flag.String("json", "", "write the machine-readable report to this file")
	flag.Parse()

	if len(addrs) == 0 {
		addrs = addrList{"http://localhost:8080"}
	}
	// Accept the same bare host:port that adaptivetc-serve -addr takes.
	for i, a := range addrs {
		if !strings.Contains(a, "://") {
			addrs[i] = "http://" + a
		}
	}
	ring, err := newTargetRing(addrs, *addrWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	progMix := strings.Split(*programs, ",")
	engMix := strings.Split(*engines, ",")
	if *dslFile != "" {
		hash, err := registerDSL(addrs, *dslFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("loadgen: registered %s as program %s on %d node(s)\n", *dslFile, hash, len(addrs))
		progMix = append(progMix, "hash:"+hash)
	}
	mix, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	conns := *concurrency
	if *mode == "open" {
		conns = *maxOutstanding
	}
	client := newClient(conns)

	var cnt counters
	lat := newLatencySet()
	nodes := newNodeSet()
	start := time.Now()
	switch *mode {
	case "closed":
		runClosed(client, ring, progMix, engMix, mix, *n, *timeoutMS, *concurrency, *duration, *seed, &cnt, lat, nodes)
	case "open":
		runOpen(client, ring, progMix, engMix, mix, *n, *timeoutMS, *rate, *arrival, *period,
			*maxOutstanding, *duration, *seed, &cnt, lat, nodes)
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -mode %q (closed|open)\n", *mode)
		os.Exit(2)
	}
	elapsed := time.Since(start)

	completed := cnt.completed.Load()
	rep := report{
		Mode:            *mode,
		DurationSeconds: elapsed.Seconds(),
		Completed:       completed,
		Cancelled:       cnt.cancelled.Load(),
		Failed:          cnt.failed.Load(),
		Rejected:        cnt.rejected.Load(),
		Lost:            cnt.lost.Load(),
		PollTimeouts:    cnt.pollTimeouts.Load(),
		HTTPErrors:      cnt.httpErrs.Load(),
		Dropped:         cnt.dropped.Load(),
		ThroughputPerS:  float64(completed) / elapsed.Seconds(),
	}
	if *mode == "open" {
		rep.Arrival, rep.RatePerSec = *arrival, *rate
	} else {
		rep.Concurrency = *concurrency
	}
	lat.mu.Lock()
	rep.Latency = summarize(lat.overall)
	rep.ByPriority = make(map[string]percentileReport, len(lat.byPrio))
	for p, samples := range lat.byPrio {
		rep.ByPriority[p] = summarize(samples)
	}
	lat.mu.Unlock()
	nodes.mu.Lock()
	if len(addrs) > 1 {
		rep.ByNode = make(map[string]nodeReport, len(nodes.m))
		for a, agg := range nodes.m {
			rep.ByNode[a] = nodeReport{
				Submitted: agg.submitted, Completed: agg.completed, Cancelled: agg.cancelled,
				Failed: agg.failed, Rejected: agg.rejected, Errors: agg.errors,
				Latency: summarize(agg.lat),
			}
		}
	}
	nodes.mu.Unlock()
	rep.Server = fetchServerMetrics(client, addrs[0])
	if len(addrs) > 1 {
		rep.ServerByNode = make(map[string]json.RawMessage, len(addrs))
		for _, a := range addrs {
			if m := fetchServerMetrics(client, a); m != nil {
				rep.ServerByNode[a] = m
			}
		}
	}

	printReport(addrs[0], rep)
	if *jsonPath != "" {
		blob, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
	if completed == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no job completed")
		os.Exit(1)
	}
}

// runClosed is the closed-loop model: each submitter chains jobs
// back-to-back, so offered load adapts to (and hides) server slowness.
func runClosed(client *http.Client, ring *targetRing, progMix, engMix []string, mix []tenantSpec,
	n int, timeoutMS int64, concurrency int, duration time.Duration, seed int64,
	cnt *counters, lat *latencySet, nodes *nodeSet) {
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for i := 0; time.Now().Before(deadline); i++ {
				ten := pickTenant(rng, mix)
				req := submitReq{
					program: progMix[(c+i)%len(progMix)],
					engine:  engMix[(c*7+i)%len(engMix)],
					n:       n, timeoutMS: timeoutMS,
					tenant: ten.name, priority: ten.priority,
				}
				addr := ring.pick()
				d, outcome := runOne(client, addr, req, time.Now(), cnt)
				nodes.record(addr, outcome, d)
				if outcome == "done" {
					lat.add(ten.priority, d)
				}
			}
		}(c)
	}
	wg.Wait()
}

// runOpen is the open-loop model: arrivals come from the configured
// process regardless of server state, and each job's latency clock starts
// at its intended arrival time, so server-induced queueing is charged to
// the server rather than silently thinning the sample.
func runOpen(client *http.Client, ring *targetRing, progMix, engMix []string, mix []tenantSpec,
	n int, timeoutMS int64, rate float64, arrival string, period time.Duration,
	maxOutstanding int, duration time.Duration, seed int64,
	cnt *counters, lat *latencySet, nodes *nodeSet) {
	if rate <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: open loop needs -rate > 0")
		os.Exit(2)
	}
	gen := &arrivalGen{kind: arrival, rate: rate, period: period, rng: rand.New(rand.NewSource(seed))}
	rng := rand.New(rand.NewSource(seed + 1))
	outstanding := make(chan struct{}, maxOutstanding)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		offset := gen.next()
		if offset > duration {
			break
		}
		intended := start.Add(offset)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		select {
		case outstanding <- struct{}{}:
		default:
			cnt.dropped.Add(1)
			continue
		}
		ten := pickTenant(rng, mix)
		req := submitReq{
			program: progMix[i%len(progMix)],
			engine:  engMix[(i*7)%len(engMix)],
			n:       n, timeoutMS: timeoutMS,
			tenant: ten.name, priority: ten.priority,
		}
		addr := ring.pick()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-outstanding }()
			d, outcome := runOne(client, addr, req, intended, cnt)
			nodes.record(addr, outcome, d)
			if outcome == "done" {
				lat.add(req.priority, d)
			}
		}()
	}
	wg.Wait()
}

func printReport(addr string, rep report) {
	switch rep.Mode {
	case "open":
		fmt.Printf("loadgen: open loop, %s arrivals at %.1f/s for %.1fs against %s\n",
			rep.Arrival, rep.RatePerSec, rep.DurationSeconds, addr)
	default:
		fmt.Printf("loadgen: closed loop at concurrency %d for %.1fs against %s\n",
			rep.Concurrency, rep.DurationSeconds, addr)
	}
	fmt.Printf("completed=%d cancelled=%d failed=%d rejected=%d lost=%d poll-timeouts=%d http-errors=%d dropped=%d\n",
		rep.Completed, rep.Cancelled, rep.Failed, rep.Rejected, rep.Lost, rep.PollTimeouts, rep.HTTPErrors, rep.Dropped)
	fmt.Printf("throughput=%.1f jobs/s\n", rep.ThroughputPerS)
	if rep.Latency.Count > 0 {
		fmt.Printf("latency p50=%.2fms p90=%.2fms p99=%.2fms (n=%d)\n",
			rep.Latency.P50MS, rep.Latency.P90MS, rep.Latency.P99MS, rep.Latency.Count)
	}
	prios := make([]string, 0, len(rep.ByPriority))
	for p := range rep.ByPriority {
		prios = append(prios, p)
	}
	sort.Strings(prios)
	for _, p := range prios {
		r := rep.ByPriority[p]
		fmt.Printf("  priority=%-11s p50=%.2fms p90=%.2fms p99=%.2fms (n=%d)\n", p, r.P50MS, r.P90MS, r.P99MS, r.Count)
	}
	nodeAddrs := make([]string, 0, len(rep.ByNode))
	for a := range rep.ByNode {
		nodeAddrs = append(nodeAddrs, a)
	}
	sort.Strings(nodeAddrs)
	for _, a := range nodeAddrs {
		r := rep.ByNode[a]
		fmt.Printf("  node=%s submitted=%d completed=%d rejected=%d errors=%d p99=%.2fms\n",
			a, r.Submitted, r.Completed, r.Rejected, r.Errors, r.Latency.P99MS)
	}
	var m struct {
		Workers             int     `json:"workers"`
		MaxConcurrentJobs   int     `json:"max_concurrent_jobs"`
		Completed           int64   `json:"completed"`
		ThroughputPerSecond float64 `json:"throughput_per_second"`
		InvariantChecked    int64   `json:"invariant_checked"`
		InvariantViolations int64   `json:"invariant_violations"`
	}
	if rep.Server != nil && json.Unmarshal(rep.Server, &m) == nil {
		fmt.Printf("server: workers=%d max_concurrent_jobs=%d completed=%d throughput=%.1f/s invariant_checked=%d violations=%d\n",
			m.Workers, m.MaxConcurrentJobs, m.Completed, m.ThroughputPerSecond,
			m.InvariantChecked, m.InvariantViolations)
	}
}

// registerDSL posts the DSL source at path to every target's /programs
// and returns the content hash — identical on every node, since the hash
// is computed from the canonicalized source.
func registerDSL(addrs []string, path string) (string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	name := strings.TrimSuffix(path[strings.LastIndex(path, "/")+1:], ".atc")
	body, _ := json.Marshal(map[string]string{"name": name, "source": string(src)})
	client := &http.Client{Timeout: 10 * time.Second}
	hash := ""
	for _, addr := range addrs {
		resp, err := client.Post(addr+"/programs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", fmt.Errorf("register DSL program on %s: %w", addr, err)
		}
		var meta struct {
			Hash  string `json:"hash"`
			Error string `json:"error"`
			Line  int    `json:"line"`
			Col   int    `json:"col"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&meta)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			if meta.Line > 0 {
				return "", fmt.Errorf("%s rejected %s at line %d col %d: %s", addr, path, meta.Line, meta.Col, meta.Error)
			}
			return "", fmt.Errorf("%s rejected %s: HTTP %d %s", addr, path, resp.StatusCode, meta.Error)
		}
		if decErr != nil || meta.Hash == "" {
			return "", fmt.Errorf("%s returned no hash for %s", addr, path)
		}
		if hash == "" {
			hash = meta.Hash
		} else if hash != meta.Hash {
			return "", fmt.Errorf("nodes disagree on the content hash: %s vs %s", hash, meta.Hash)
		}
	}
	return hash, nil
}

// fetchServerMetrics snapshots the server's /metrics for the report, so a
// recorded run carries the configuration it was measured against.
func fetchServerMetrics(client *http.Client, addr string) json.RawMessage {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if json.NewDecoder(resp.Body).Decode(&raw) != nil {
		return nil
	}
	return raw
}

// submitReq is one job submission's parameters.
type submitReq struct {
	program, engine  string
	tenant, priority string
	n                int
	timeoutMS        int64
}

// clientTimeout bounds one HTTP request; longPoll is the ?wait= every job
// request carries, below clientTimeout so the server's answer at the bound
// arrives before the client gives the request up.
const (
	clientTimeout = 30 * time.Second
	longPoll      = "?wait=20s"
)

// newClient returns the load client: one connection per in-flight job, all
// kept alive. A long-poll occupies its connection for as long as the job
// runs, and net/http's default of two idle connections per host would have
// every job beyond the second open a new TCP connection.
func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no total cap; the per-host one governs
	tr.MaxIdleConnsPerHost = conns
	tr.MaxConnsPerHost = conns
	return &http.Client{Timeout: clientTimeout, Transport: tr}
}

// runOne submits one job and long-polls it to a terminal state, returning
// the start→terminal latency and the outcome. start is the intended
// arrival time in open-loop mode (submit time in closed loop), so the
// latency includes any delay the generator itself accumulated.
//
// The submit itself waits (POST /jobs?wait=), so a short job is answered
// in that one round trip; a job still live at the bound is followed with
// GET /jobs/{id}?wait=, one blocking request per bound and no sleep in
// between. Every non-200 status response is terminal: a 404 means the
// server evicted the record (RetainJobs pressure) and the job's fate is
// unknowable. A poll deadline (the job's own timeout plus a grace period)
// bounds the loop even against a server that keeps answering 200 without
// ever settling.
func runOne(client *http.Client, addr string, req submitReq, start time.Time, cnt *counters) (time.Duration, string) {
	payload := map[string]any{
		"engine": req.engine, "n": req.n,
		"timeout_ms": req.timeoutMS, "tenant": req.tenant, "priority": req.priority,
	}
	// "hash:<sha256>" mix entries (from -dsl-file) run a cached DSL
	// program by content hash; everything else is a registry name.
	if h, ok := strings.CutPrefix(req.program, "hash:"); ok {
		payload["program_hash"] = h
	} else {
		payload["program"] = req.program
	}
	body, _ := json.Marshal(payload)
	httpReq, err := http.NewRequest("POST", addr+"/jobs"+longPoll, bytes.NewReader(body))
	if err != nil {
		cnt.httpErrs.Add(1)
		return 0, "error"
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if req.tenant != "" {
		httpReq.Header.Set("X-Tenant", req.tenant)
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		cnt.httpErrs.Add(1)
		time.Sleep(100 * time.Millisecond)
		return 0, "error"
	}
	var st jobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		cnt.rejected.Add(1)
		time.Sleep(50 * time.Millisecond) // back off as Retry-After suggests
		return 0, "rejected"
	case resp.StatusCode != http.StatusAccepted || decErr != nil || st.ID == "":
		cnt.httpErrs.Add(1)
		time.Sleep(100 * time.Millisecond)
		return 0, "error"
	}

	pollDeadline := time.Now().Add(time.Duration(req.timeoutMS)*time.Millisecond + 10*time.Second)
	for {
		switch st.State {
		case "done":
			cnt.completed.Add(1)
			return time.Since(start), "done"
		case "cancelled":
			cnt.cancelled.Add(1)
			return time.Since(start), "cancelled"
		case "failed":
			cnt.failed.Add(1)
			return time.Since(start), "failed"
		case "queued", "running", "forwarded":
			// still in flight ("forwarded": executing on a cluster peer,
			// the origin node settles the record when the peer finishes)
		default:
			cnt.httpErrs.Add(1)
			return 0, "error"
		}
		if time.Now().After(pollDeadline) {
			cnt.pollTimeouts.Add(1)
			return 0, "poll-timeout"
		}
		resp, err := client.Get(addr + "/jobs/" + st.ID + longPoll)
		if err != nil {
			cnt.httpErrs.Add(1)
			return 0, "error"
		}
		code := resp.StatusCode
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch {
		case code == http.StatusNotFound:
			cnt.lost.Add(1)
			return 0, "lost"
		case code != http.StatusOK || decErr != nil:
			cnt.httpErrs.Add(1)
			return 0, "error"
		}
	}
}
