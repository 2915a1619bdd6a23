// The Sim's grant sequence pinned against a recorded file: which worker runs
// next, at what clock and up to what horizon is a pure function of the
// workers' Advance / Yield / Sleep calls, the seed and the quantum. The file
// under testdata/ was recorded on the channel-handoff core, the commit before
// the workers became coroutines, so "the schedule did not move" is a test;
// its idle rows were added before grant learnt to re-queue an idle worker
// in place.
// Regenerate with `go test ./internal/vtime -run TestSimGrantSequenceGolden
// -update` only when a change is meant to move the schedule.
package vtime

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/grants.golden from this run")

// grantSequence runs a seeded body of random Advance / Yield / Sleep calls
// and returns one "id clock horizon" line per resume: the body's start and
// every Yield or Sleep that came back with a new horizon (a self-grant is a
// resume too). The workers write to one builder with no lock — exactly one
// runs at a time, and the race detector has to agree.
func grantSequence(n int, quantum int64) string {
	var sb strings.Builder
	sim := &Sim{Seed: 20100424, Quantum: quantum}
	sim.Run(n, func(p Proc) {
		sp := p.(*simProc)
		last := int64(-1)
		resumed := func() {
			if sp.horizon != last {
				last = sp.horizon
				fmt.Fprintf(&sb, "%d %d %d\n", sp.id, sp.clock, sp.horizon)
			}
		}
		resumed()
		r := p.Rand()
		for i := 0; i < 40; i++ {
			switch r.Intn(3) {
			case 0:
				p.Advance(int64(r.Intn(400)))
			case 1:
				p.Yield()
				resumed()
			case 2:
				p.Sleep(int64(r.Intn(300)))
				resumed()
			}
		}
	})
	return sb.String()
}

// grantConfig is one recorded Sim shape: n workers at one quantum, running
// grantSequence's body, or with idle set idleSequence's, whose idle phases
// go through YieldIdle: a retry that fails k times, then wakes.
type grantConfig struct {
	n       int
	quantum int64
	idle    bool
}

// sequence runs the configuration's body.
func (c grantConfig) sequence() string {
	if c.idle {
		return idleSequence(c.n, c.quantum, true)
	}
	return grantSequence(c.n, c.quantum)
}

// grantConfigs is n ∈ {1, 2, 3, 8} × Quantum ∈ {1, 500}: the serial fast
// path, the two-worker leapfrog, an odd count and a full heap, each at the
// tightest quantum and at the default; then the odd count and the full heap
// again with idle phases, where the core runs retries and re-queues the
// idle worker.
var grantConfigs = []grantConfig{
	{1, 1, false}, {1, 500, false}, {2, 1, false}, {2, 500, false},
	{3, 1, false}, {3, 500, false}, {8, 1, false}, {8, 500, false},
	{3, 1, true}, {3, 500, true}, {8, 1, true}, {8, 500, true},
}

func TestSimGrantSequenceGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range grantConfigs {
		idle := ""
		if c.idle {
			idle = " idle"
		}
		fmt.Fprintf(&sb, "# n=%d quantum=%d%s\n%s", c.n, c.quantum, idle, c.sequence())
	}
	got := sb.String()
	path := filepath.Join("testdata", "grants.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted: the Sim's grant sequence moved\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestSimConcurrentRuns is what `adaptivetc-bench -parallel 8` relies on:
// Sim runs share nothing, so eight at once give the sequences they give one
// after another.
func TestSimConcurrentRuns(t *testing.T) {
	want := make([]string, len(grantConfigs))
	for i, c := range grantConfigs {
		want[i] = c.sequence()
	}
	got := make([]string, len(grantConfigs))
	var wg sync.WaitGroup
	for i, c := range grantConfigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.sequence()
		}()
	}
	wg.Wait()
	for i, c := range grantConfigs {
		if got[i] != want[i] {
			t.Errorf("%+v: concurrent run diverged from the sequential one\n--- got\n%s\n--- want\n%s",
				c, got[i], want[i])
		}
	}
}
