// Command benchmark is the one benchmark of this repository: five named
// workloads over the whole stack, five end-to-end metrics measured with
// tracing off, and a traced run that adds per-layer probes and span
// timings. BENCHMARK.json at the repository root is its contract; README.md
// in this directory defines every metric and workload.
//
//	go run -C benchmark . -workload serve-http -seed 7 -seconds 15 -trace 0
//	go run -C benchmark . -workload paper-sim  -seed 7 -seconds 15 -trace 1
//	go run -C benchmark . -workload all -repeat 2
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets its workload up at least minSetupRuns times, and goes on (to
// at most maxSetupRuns) until set-up has taken setupBudget in all, so a
// millisecond set-up is sampled often enough for its median to be steady.
// setup_s is the median; the last instance is the one measured.
const (
	minSetupRuns = 3
	maxSetupRuns = 31
	setupBudget  = time.Second
)

// warmup is the untimed lead-in that lets caches, free-lists and the
// server's connection pool fill: a sixth of the window, at most 2 s.
func warmup(timed time.Duration) time.Duration { return min(timed/6, 2*time.Second) }

// info is the line printed before the result: the host block and what the
// run did, for a reader rather than for the driver.
type info struct {
	Host     hostInfo  `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Workers  int       `json:"workers"`
	Clients  int       `json:"clients"`
	Samples  int       `json:"op_samples"`
	SetupsS  []float64 `json:"setup_runs_s,omitempty"` // as read, not at reference speed
	// HostSlowness is the reference kernel's median time in the timed
	// window over its nominal time; Raw holds readings before the
	// end-to-end metrics were brought to reference speed with it.
	HostSlowness float64            `json:"host_slowness,omitempty"`
	Raw          map[string]float64 `json:"raw,omitempty"`
	FirstErr     string             `json:"first_error,omitempty"`
	SelfMS       map[string]float64 `json:"span_self_ms_per_op,omitempty"`
	TraceFile    string             `json:"trace_out,omitempty"`
}

// plan is what one run of one workload is asked to do.
type plan struct {
	seed     int64
	timed    time.Duration // length of the timed window
	traced   bool
	traceOut string // where a traced run writes its spans; empty for nowhere
	// setups fixes the number of set-up runs; zero means as many as the
	// constants above ask for.
	setups int
	host   hostInfo
}

// measure runs one workload once and returns its result: the end-to-end
// metrics when untraced, the per-layer metrics when traced.
func measure(w workload, pl plan) (result, info, error) {
	seed, timed, traced := pl.seed, pl.timed, pl.traced
	inf := info{Host: pl.host, Workload: w.name, Seed: seed, Seconds: timed.Seconds(), Traced: traced, Workers: workers()}
	more := func(i int, spent time.Duration) bool {
		if pl.setups > 0 {
			return i < pl.setups
		}
		return i < maxSetupRuns && (i < minSetupRuns || spent < setupBudget)
	}
	var inst *instance
	var spent time.Duration
	var setups []float64 // seconds at reference speed
	for i := 0; more(i, spent); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return result{}, inf, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		took := time.Since(t0)
		spent += took
		inf.SetupsS = append(inf.SetupsS, took.Seconds())
		if traced {
			break // set-up time is an end-to-end metric; the traced run does not report it
		}
		// How slow the host was is sampled right after each set-up.
		setups = append(setups, atReferenceSpeed(took, 0, hostSlowness(refSamples(5))).Seconds())
	}
	defer func() { inst.close() }() // whichever close is current: the traced path closes early
	inf.Clients = inst.clients

	var seq atomic.Int64
	warm := runWindow(inst, warmup(timed), nil, &seq)
	runtime.GC() // start the timed window from a collected heap on every run
	res := result{Metrics: map[string]metric{}}
	count := func(ws ...window) {
		for _, x := range ws {
			res.Attempted += x.attempted
			res.Failed += x.failed
			if x.firstErr != nil && inf.FirstErr == "" {
				inf.FirstErr = x.firstErr.Error()
			}
		}
	}

	if !traced {
		win := runWindow(inst, timed, nil, &seq)
		count(warm, win)
		inf.Samples = len(win.ops)
		if len(win.ops) == 0 {
			return res, inf, errors.New("no op completed in the timed window")
		}
		res.Metrics = endToEnd(win, setups, &inf)
		res.Correct = res.Failed == 0
		return res, inf, nil
	}

	// Traced: a third of the window untraced, a third with the span
	// recorder on (their ratio is the tracing overhead), then the layer
	// probes, which do not depend on the workload.
	plain := runWindow(inst, timed/3, nil, &seq)
	rec := newRecorder(inst.clients)
	tracedWin := runWindow(inst, timed/3, rec, &seq)
	count(warm, plain, tracedWin)
	inf.Samples = len(tracedWin.ops)
	if len(plain.ops) == 0 || len(tracedWin.ops) == 0 {
		return res, inf, errors.New("no op completed in the traced window")
	}
	spans := rec.spans()
	inf.SelfMS = map[string]float64{}
	for name, ns := range selfByName(spans) {
		inf.SelfMS[name] = float64(ns) / 1e6 / float64(tracedWin.attempted)
	}
	if pl.traceOut != "" {
		if err := writeSpans(pl.traceOut, spans); err != nil {
			return res, inf, fmt.Errorf("writing spans: %w", err)
		}
		inf.TraceFile = pl.traceOut
	}
	layer := processMetrics(plain, tracedWin)
	inst.close() // free the CPUs and ports before the probes measure
	inst.close = func() {}
	probed, err := runProbes(seed)
	if err != nil {
		return res, inf, fmt.Errorf("layer probes: %w", err)
	}
	for name, m := range probed {
		layer[name] = m
	}
	res.Metrics = layer
	res.Correct = res.Failed == 0
	return res, inf, nil
}

// endToEnd turns a timed window into the five end-to-end metrics, at
// reference host speed, and notes the raw readings in inf.
func endToEnd(win window, setups []float64, inf *info) map[string]metric {
	if len(win.ref) == 0 { // a window shorter than refEvery
		win.ref = refSamples(5)
	}
	slow := hostSlowness(win.ref)
	var took, atRef time.Duration
	lat := make([]time.Duration, len(win.ops))
	for i, o := range win.ops {
		lat[i] = atReferenceSpeed(o.took, o.idle, slow)
		took += o.took
		atRef += lat[i]
	}
	ops := float64(len(win.ops))
	ms := sortedCopy(durs(lat, time.Millisecond))
	cpuMS := float64(win.cpu) / float64(time.Millisecond) / ops
	inf.HostSlowness = slow
	inf.Raw = map[string]float64{"ops_per_s": win.opsPerSecond(), "cpu_ms_per_op": cpuMS, "setup_s": median(inf.SetupsS)}
	return map[string]metric{
		"setup_s": {median(setups), "s"},
		// The window's length shrinks by the factor its ops' time did.
		"ops_per_s":     {win.opsPerSecond() * float64(took) / float64(atRef), "1/s"},
		"op_ms_p50":     {percentile(ms, 0.50), "ms"},
		"op_ms_p95":     {percentile(ms, 0.95), "ms"},
		"cpu_ms_per_op": {cpuMS / slow, "ms"},
	}
}

// processMetrics are the per-layer metrics that describe the measured
// workload itself rather than a layer probed in isolation.
func processMetrics(plain, traced window) map[string]metric {
	ops := float64(len(traced.ops))
	var gcShare float64
	if cpu := traced.cpu.Seconds(); cpu > 0 {
		gcShare = (traced.mem1.gcCPU - traced.mem0.gcCPU) / cpu
	}
	return map[string]metric{
		"go.alloc_kb_per_op":         {float64(traced.mem1.totalAlloc-traced.mem0.totalAlloc) / 1024 / ops, "KiB"},
		"go.allocs_per_op":           {float64(traced.mem1.mallocs-traced.mem0.mallocs) / ops, "count"},
		"go.gc_cpu_share":            {gcShare, "ratio"},
		"go.heap_sys_mb":             {float64(traced.mem1.heapSys) / (1 << 20), "MiB"},
		"proc.rss_peak_mb":           {rssPeakMB(), "MiB"},
		"bench.trace_overhead_share": {1 - traced.opsPerSecond()/plain.opsPerSecond(), "ratio"},
		"bench.ref_kernel_us":        {p50of(append(plain.ref, traced.ref...), time.Microsecond), "us"},
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run, or all (with -repeat)")
	seed := flag.Int64("seed", 1, "seed for op order, victim selection, job mix and DSL variants")
	seconds := flag.Float64("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "1 turns the span recorder on and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "where a traced run writes its spans (default trace-<workload>.json)")
	repeat := flag.Int("repeat", 1, "run this many full sets back to back and compare them against the bounds")
	flag.Parse()

	contract, err := loadContract(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var picked []workload
	if *name == "all" {
		picked = workloads
	} else if w, ok := workloadByName(*name); ok {
		picked = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have %v or all\n", *name, contract.workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -repeat at least 1")
		return 2
	}
	if len(picked) > 1 && *repeat < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -workload all is for -repeat 2 or more; the result line holds one workload")
		return 2
	}
	host := readHost()
	timed := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1

	// one measures w and reports (result, exit code); ok is false when
	// there is no result fit to print.
	one := func(w workload) (res result, ok bool, code int) {
		out := *traceOut
		if traced && out == "" {
			out = "trace-" + w.name + ".json"
		}
		res, inf, err := measure(w, plan{seed: *seed, timed: timed, traced: traced, traceOut: out, host: host})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return res, false, 1
		}
		printJSON(map[string]info{"info": inf})
		if err := contract.checkNames(res.Metrics, traced); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return res, false, 1
		}
		if res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed; first: %s\n", w.name, res.Failed, res.Attempted, inf.FirstErr)
			return res, true, 1
		}
		return res, true, 0
	}

	if *repeat == 1 {
		res, ok, code := one(picked[0])
		if ok {
			printJSON(res)
		}
		return code
	}

	// Repeat mode: full sets back to back, then every metric of every
	// workload side by side with its relative difference and bound.
	sets := make([]map[string]result, *repeat)
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range picked {
			res, _, code := one(w)
			if code != 0 {
				return code
			}
			sets[i][w.name] = res
		}
	}
	return compareSets(contract, picked, sets)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of plain numbers and strings are printed
	}
	fmt.Println(string(data))
}

// compareSets prints, per workload and metric, every set's value, the
// largest relative difference from the first set and the bound. The sets
// ran the same code, so a difference in either direction is noise: it
// fails when a bounded metric differs by more than its bound, or an exact
// count differs at all.
func compareSets(c *contract, picked []workload, sets []map[string]result) int {
	code := 0
	for _, w := range picked {
		var names []string
		for n := range sets[0][w.name].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			first := sets[0][w.name].Metrics[n]
			line := fmt.Sprintf("%-16s %-40s", w.name, n)
			var diff float64
			for _, s := range sets {
				v := s[w.name].Metrics[n].Value
				line += fmt.Sprintf(" %14.6g", v)
				switch {
				case first.Value != 0:
					diff = max(diff, math.Abs(v-first.Value)/math.Abs(first.Value))
				case v != 0:
					diff = math.Inf(1)
				}
			}
			verdict := fmt.Sprintf("differ by %6.2f%%", 100*diff)
			if bound, bounded := c.bound(n); bounded {
				verdict += fmt.Sprintf("  bound %5.1f%%", 100*bound)
				if diff > bound {
					verdict += "  EXCEEDED"
					code = 1
				}
			} else if exactCounts[n] {
				verdict += "  exact count"
				if diff != 0 {
					verdict += "  MOVED"
					code = 1
				}
			}
			fmt.Printf("%s %-5s %s\n", line, first.Unit, verdict)
		}
	}
	if code != 0 {
		fmt.Println("benchmark: the sets disagree beyond the bounds")
	}
	return code
}
