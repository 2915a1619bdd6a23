package main

import (
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	fifty := make([]float64, 50)
	for i := range fifty {
		fifty[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.99, 50}, // the truncating int(p*(n-1)) form reads 49 here
		{0.95, 48},
		{0.50, 25},
		{0.02, 1},
		{0, 1},
		{1, 50},
	} {
		if got := percentile(fifty, c.p); got != c.want {
			t.Errorf("percentile(1..50, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b", Start: 20, End: 50, Parent: 0},     // overlaps a: counted once
		{ID: 3, Name: "c", Start: 90, End: 120, Parent: 0},    // sticks out: clipped at 100
		{ID: 4, Name: "a", Start: 22, End: 28, Parent: 2},     // grandchild: b's business only
		{ID: 5, Name: "op", Start: 200, End: 260, Parent: -1}, // a second op, no children
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{0: 50, 1: 20, 2: 24, 3: 30, 4: 6, 5: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["op"] != 110 || byName["a"] != 26 {
		t.Errorf("self by name = %v, want op:110 a:26", byName)
	}
	// The stages of one op, laid end to end, sum to the op.
	staged := []span{
		{ID: 0, Name: "op", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "serve.admit", Start: 0, End: 5, Parent: 0},
		{ID: 2, Name: "serve.queue", Start: 5, End: 15, Parent: 0},
		{ID: 3, Name: "serve.run", Start: 15, End: 60, Parent: 0},
		{ID: 4, Name: "serve.finalize", Start: 60, End: 70, Parent: 0},
		{ID: 5, Name: "client.poll_gap", Start: 70, End: 98, Parent: 0},
		{ID: 6, Name: "verify", Start: 98, End: 100, Parent: 0},
		{ID: 7, Name: "http.submit", Start: 0, End: 8, Parent: 0}, // not a stage
	}
	if got := stageSumRatio(staged); got != 1 {
		t.Errorf("stage sum ratio = %v, want 1", got)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		took, idle time.Duration
		slowness   float64
		want       time.Duration
	}{
		{12 * ms, 0, 1.2, 10 * ms},      // CPU-bound: all of it scales
		{11 * ms, 5 * ms, 1.2, 10 * ms}, // the 5 ms sleep does not
		{8 * ms, 0, 0.8, 10 * ms},       // a fast host scales the other way
		{5 * ms, 6 * ms, 1.5, 5 * ms},   // idle can be no more than the whole
		{7 * ms, 2 * ms, 1, 7 * ms},     // nominal speed changes nothing
	} {
		if got := atReferenceSpeed(c.took, c.idle, c.slowness); got != c.want {
			t.Errorf("atReferenceSpeed(%v, %v, %v) = %v, want %v", c.took, c.idle, c.slowness, got, c.want)
		}
	}
	samples := []time.Duration{3 * refNominal, refNominal, 2 * refNominal}
	if got := hostSlowness(samples); got != 2 {
		t.Errorf("hostSlowness = %v, want the median sample over nominal = 2", got)
	}
	// A window on a host twice as slow reads the same as one at nominal speed.
	nominal := window{elapsed: time.Second, cpu: time.Second, ref: []time.Duration{refNominal},
		ops: []opTime{{took: 10 * ms}, {took: 10 * ms, idle: 5 * ms}}}
	slow := window{elapsed: 1500 * ms, cpu: 2 * time.Second, ref: []time.Duration{2 * refNominal},
		ops: []opTime{{took: 20 * ms}, {took: 15 * ms, idle: 5 * ms}}}
	var inf info
	a, b := endToEnd(nominal, []float64{1}, &inf), endToEnd(slow, []float64{1}, &inf)
	for _, name := range []string{"op_ms_p50", "op_ms_p95", "cpu_ms_per_op"} {
		if a[name].Value != b[name].Value {
			t.Errorf("%s: %v at nominal speed, %v on the slow host", name, a[name].Value, b[name].Value)
		}
	}
	// 35 ms of op time became 20 ms: so does the window.
	if got, want := b["ops_per_s"].Value, 2/1.5*35/20; math.Abs(got-want) > 1e-9 {
		t.Errorf("ops_per_s on the slow host = %v, want %v", got, want)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var rec *recorder
	tr := rec.beginOp(0, 1)
	tr.span("x")()
	tr.add("y", time.Now(), time.Now())
	tr.end() // none of these may panic or record

	rec = newRecorder(1)
	tr = rec.beginOp(0, 7)
	tr.span("child")()
	tr.end()
	spans := rec.spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
		if s.Name == "child" && s.Parent != tr.root.ID {
			t.Errorf("child's parent = %d, want %d", s.Parent, tr.root.ID)
		}
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	const n = 20
	order := func(seed int64) []int {
		s := newSchedule(seed, n)
		out := make([]int, 5*n)
		for k := range out {
			out[k] = s.at(int64(k))
		}
		return out
	}
	a, again, b := order(42), order(42), order(43)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two different op schedules")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same op schedule")
	}
	for c := 0; c < 5; c++ {
		cycle := append([]int(nil), a[c*n:(c+1)*n]...)
		sort.Ints(cycle)
		for i, v := range cycle {
			if v != i {
				t.Fatalf("cycle %d is not a permutation of the %d op kinds: %v", c, n, a[c*n:(c+1)*n])
			}
		}
	}
}

func TestContractListsTheWorkloads(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(c.workloadNames(), have) {
		t.Errorf("BENCHMARK.json lists %v, the command runs %v", c.workloadNames(), have)
	}
	perLayer := map[string]bool{}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = true
	}
	for name := range exactCounts {
		if !perLayer[name] {
			t.Errorf("exact count %q is not a per-layer metric of BENCHMARK.json", name)
		}
	}
}

// smokeWorkloads are the five workloads with the durable one's seeding
// pass cut to a tenth, so the smoke test stays short.
func smokeWorkloads() []workload {
	out := append([]workload(nil), workloads...)
	for i := range out {
		if out[i].name == "serve-durable" {
			out[i].setup = func(seed int64) (*instance, error) {
				_, inst, err := newServeDurable(seed, seedingJobs/10)
				return inst, err
			}
		}
	}
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range smokeWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			res, inf, err := measure(w, plan{seed: 5, timed: 300 * time.Millisecond, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.checkNames(res.Metrics, false); err != nil {
				t.Error(err)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s = %v, want a positive finite number", name, m.Value)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d, correct %v; first error: %s", res.Attempted, res.Failed, res.Correct, inf.FirstErr)
			}
		})
	}
}

// TestTracedRunPrintsEveryLayerMetric runs the whole probe suite, so it is
// skipped under -short.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer probe")
	}
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("search-eager")
	out := filepath.Join(t.TempDir(), "spans.json")
	res, _, err := measure(w, plan{seed: 5, timed: time.Second, traced: true, traceOut: out, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkNames(res.Metrics, true); err != nil {
		t.Error(err)
	}
	if v := res.Metrics["serve.stage_sum_ratio"].Value; v < 0.95 || v > 1.05 {
		t.Errorf("serve.stage_sum_ratio = %v, want within 0.95..1.05", v)
	}
	if v := res.Metrics["serve.violations"].Value; v != 0 {
		t.Errorf("serve.violations = %v, want 0", v)
	}
}
