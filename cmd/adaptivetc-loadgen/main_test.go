package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestPctDurNearestRank pins the percentile fix: nearest-rank indexing.
// On 50 sorted samples, p99 is the 50th — the old truncating
// int(p*(n-1)) form returned the 49th (~p96).
func TestPctDurNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 50; i++ {
		s = append(s, time.Duration(i))
	}
	if got := pctDur(s, 0.99); got != 50 {
		t.Fatalf("p99 of 1..50 = %d, want 50", got)
	}
	if got := pctDur(s, 0.50); got != 25 {
		t.Fatalf("p50 of 1..50 = %d, want 25", got)
	}
	if got := pctDur(nil, 0.99); got != 0 {
		t.Fatalf("p99 of empty = %d, want 0", got)
	}
	if got := pctDur(s[:1], 0.99); got != 1 {
		t.Fatalf("p99 of singleton = %d, want the sample", got)
	}
}

// TestParseTenants covers the mix grammar and its defaults.
func TestParseTenants(t *testing.T) {
	mix, err := parseTenants("frontend:interactive:3,analytics:batch,scrub")
	if err != nil {
		t.Fatal(err)
	}
	want := []tenantSpec{
		{name: "frontend", priority: "interactive", weight: 3},
		{name: "analytics", priority: "batch", weight: 1},
		{name: "scrub", priority: "batch", weight: 1},
	}
	if len(mix) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("tenant %d = %+v, want %+v", i, mix[i], want[i])
		}
	}
	if def, err := parseTenants(""); err != nil || len(def) != 1 || def[0].name != "default" {
		t.Fatalf("default mix = %+v err=%v, want one default tenant", def, err)
	}
	for _, bad := range []string{":interactive", "a:b:c:d", "a:batch:0", "a:batch:x"} {
		if _, err := parseTenants(bad); err == nil {
			t.Fatalf("parseTenants(%q) accepted, want error", bad)
		}
	}
}

// TestPickTenantWeights checks the weighted draw is proportional.
func TestPickTenantWeights(t *testing.T) {
	mix := []tenantSpec{
		{name: "a", weight: 3},
		{name: "b", weight: 1},
	}
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[pickTenant(rng, mix).name]++
	}
	frac := float64(counts["a"]) / draws
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("tenant a drawn %.3f of the time, want ~0.75", frac)
	}
}

// TestArrivalGenRates checks each process is monotone and hits its mean
// rate to within sampling error over a long window.
func TestArrivalGenRates(t *testing.T) {
	const rate, window = 200.0, 60.0 // arrivals/s over a virtual minute
	for _, kind := range []string{"poisson", "uniform", "bursty", "diurnal"} {
		g := &arrivalGen{kind: kind, rate: rate, period: time.Second, rng: rand.New(rand.NewSource(42))}
		var prev time.Duration
		n := 0
		for {
			next := g.next()
			if next <= prev {
				t.Fatalf("%s: arrival %v not after %v", kind, next, prev)
			}
			prev = next
			if prev > time.Duration(window*float64(time.Second)) {
				break
			}
			n++
		}
		got := float64(n) / window
		if math.Abs(got-rate)/rate > 0.1 {
			t.Fatalf("%s: realized rate %.1f/s, want %.1f/s ±10%%", kind, got, rate)
		}
	}
}

// TestRunOnePollTerminalStatuses is the S1 regression test: a poll that
// returns 404 (the record was evicted under RetainJobs) or an unknown
// state must terminate the loop, not spin forever.
func TestRunOnePollTerminalStatuses(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pollStatus int
		pollBody   string
		outcome    string
		counter    func(*counters) int64
	}{
		{"evicted-404", http.StatusNotFound, `{"error":"serve: no such job"}`, "lost",
			func(c *counters) int64 { return c.lost.Load() }},
		{"unknown-state", http.StatusOK, `{"id":"j1","state":"mystery"}`, "error",
			func(c *counters) int64 { return c.httpErrs.Load() }},
		{"server-error", http.StatusInternalServerError, `{}`, "error",
			func(c *counters) int64 { return c.httpErrs.Load() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var polls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if r.Method == "POST" {
					w.WriteHeader(http.StatusAccepted)
					w.Write([]byte(`{"id":"j1","state":"queued"}`))
					return
				}
				polls.Add(1)
				w.WriteHeader(tc.pollStatus)
				w.Write([]byte(tc.pollBody))
			}))
			defer srv.Close()

			var cnt counters
			done := make(chan string, 1)
			go func() {
				_, outcome := runOne(srv.Client(), srv.URL, submitReq{program: "fib", timeoutMS: 1000}, time.Now(), &cnt)
				done <- outcome
			}()
			select {
			case outcome := <-done:
				if outcome != tc.outcome {
					t.Fatalf("outcome = %q, want %q", outcome, tc.outcome)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("runOne still polling after 5s (%d polls) — terminal status did not terminate it", polls.Load())
			}
			if got := tc.counter(&cnt); got != 1 {
				t.Fatalf("counter = %d, want 1", got)
			}
			if polls.Load() != 1 {
				t.Fatalf("polled %d times, want exactly 1", polls.Load())
			}
		})
	}
}

// TestRunOneLongPolls: every job request carries ?wait=; a submit the
// server answers with the finished job is the whole op, and one it answers
// with a live job is followed by exactly one status request.
func TestRunOneLongPolls(t *testing.T) {
	for postState, wantPolls := range map[string]int64{"done": 0, "running": 1} {
		var polls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("wait") == "" {
				t.Errorf("%s %s carries no wait", r.Method, r.URL)
			}
			w.Header().Set("Content-Type", "application/json")
			if r.Method == "POST" {
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte(`{"id":"j1","state":"` + postState + `"}`))
				return
			}
			polls.Add(1)
			w.Write([]byte(`{"id":"j1","state":"done"}`))
		}))
		var cnt counters
		_, outcome := runOne(newClient(1), srv.URL, submitReq{program: "fib", timeoutMS: 1000}, time.Now(), &cnt)
		srv.Close()
		if outcome != "done" || cnt.completed.Load() != 1 || polls.Load() != wantPolls {
			t.Errorf("submit answered %q: outcome=%q completed=%d status requests=%d, want done/1/%d",
				postState, outcome, cnt.completed.Load(), polls.Load(), wantPolls)
		}
	}
}

// TestRunOnePollDeadline bounds the loop against a server that answers
// 200 forever without the job ever settling.
func TestRunOnePollDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the poll grace period")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == "POST" {
			w.WriteHeader(http.StatusAccepted)
		}
		w.Write([]byte(`{"id":"j1","state":"running"}`))
	}))
	defer srv.Close()

	var cnt counters
	done := make(chan string, 1)
	go func() {
		// timeoutMS -9500 pulls the deadline (timeout + 10s grace) down to
		// ~500ms so the test stays fast.
		_, outcome := runOne(srv.Client(), srv.URL, submitReq{program: "fib", timeoutMS: -9500}, time.Now(), &cnt)
		done <- outcome
	}()
	select {
	case outcome := <-done:
		if outcome != "poll-timeout" || cnt.pollTimeouts.Load() != 1 {
			t.Fatalf("outcome=%q poll_timeouts=%d, want poll-timeout/1", outcome, cnt.pollTimeouts.Load())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("poll deadline never fired")
	}
}
