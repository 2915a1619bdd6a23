// The shards a pool hands out pinned against a recorded file: which workers
// the next job gets is a pure function of the worker count, the job slots and
// the order in which jobs start and finish. The file under testdata/ was
// recorded on the static shard policy, the commit before shards became a
// fixed partition, so "every job still gets the workers it got" is a test.
// Regenerate with `go test ./internal/wsrt -run TestShardSequencePinned
// -update` only when a change is meant to move the shards.
package wsrt

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/shards.golden from this run")

// shardSequence drives one seeded schedule of job starts and finishes over n
// workers and maxJobs slots and returns it as one line: "+[ids]" for a start
// (the shard handed out, or "+none" when no shard is free), "-[ids]" for a
// finish.
func shardSequence(n, maxJobs int, seed int64) string {
	a := newShardAlloc(n, maxJobs)
	r := rand.New(rand.NewSource(seed))
	var held []int // shard indices, in start order
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d jobs=%d seed=%d:", n, maxJobs, seed)
	for step := 0; step < 40; step++ {
		if len(held) > 0 && r.Intn(2) == 0 {
			i := r.Intn(len(held))
			fmt.Fprintf(&sb, " -%v", a.parts[held[i]])
			a.release(held[i])
			held = append(held[:i], held[i+1:]...)
			continue
		}
		k := a.grab()
		if k < 0 {
			sb.WriteString(" +none")
			continue
		}
		fmt.Fprintf(&sb, " +%v", a.parts[k])
		held = append(held, k)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// TestShardSequencePinned covers n ∈ 1…8 × MaxConcurrentJobs ∈ 1…n+1 (the
// last one past the worker count), four seeded schedules each.
func TestShardSequencePinned(t *testing.T) {
	var sb strings.Builder
	for n := 1; n <= 8; n++ {
		for jobs := 1; jobs <= n+1; jobs++ {
			for seed := int64(1); seed <= 4; seed++ {
				sb.WriteString(shardSequence(n, jobs, seed))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "shards.golden")
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
		t.Errorf("%s drifted: the shards handed out moved\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
