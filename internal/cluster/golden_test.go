// The Sim's event log pinned against recorded fingerprints: run-vs-run
// equality (TestSimDeterminism) cannot see a change that moves both runs
// the same way, so four fixed configs — plus one with every policy value
// off its default — are hashed into testdata/sim_golden.json. The
// fingerprints were recorded before decide.go was extracted from sim.go.
// Regenerate with `go test ./internal/cluster -run TestSimGolden -update`
// only when a change is meant to move the Sim's schedule.
package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"adaptivetc/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim_golden.json from this run")

type simFingerprint struct {
	Events     int    `json:"events"`
	FNV1a      string `json:"fnv1a"`
	Completed  int    `json:"completed"`
	Duplicates int    `json:"duplicates"`
	MakespanNS int64  `json:"makespan_ns"`
}

func fingerprint(rep *SimReport) simFingerprint {
	h := fnv.New64a()
	for _, ev := range rep.Events {
		fmt.Fprintf(h, "%d %s %d %d %d\n", ev.T, ev.Kind, ev.Node, ev.Job, ev.Peer)
	}
	fmt.Fprintf(h, "%d %d %d\n", rep.Completed, rep.Duplicates, rep.MakespanNS)
	return simFingerprint{
		Events:     len(rep.Events),
		FNV1a:      fmt.Sprintf("%016x", h.Sum64()),
		Completed:  rep.Completed,
		Duplicates: rep.Duplicates,
		MakespanNS: rep.MakespanNS,
	}
}

type goldenCase struct {
	cfg  SimConfig
	jobs []SimJob
}

func goldenCases(t *testing.T) map[string]goldenCase {
	netFaults := func(scenario string, seed int64) *faults.Plan {
		spec, err := faults.Scenario(scenario, seed)
		if err != nil {
			t.Fatal(err)
		}
		return faults.New(spec)
	}
	return map[string]goldenCase{
		"healthy-4node-skew": {SimConfig{Nodes: 4, Seed: 20100424}, skewedJobs(4, 200, 400_000)},
		"net-mixed":          {SimConfig{Nodes: 3, Seed: 7, Faults: netFaults("net-mixed", 7)}, skewedJobs(3, 120, 400_000)},
		"scripted-partition": {SimConfig{Nodes: 3, Seed: 11, Partitions: []PartitionWindow{
			{Node: 0, StartNS: 2_000_000, EndNS: 9_000_000},
			{Node: 2, StartNS: 12_000_000, EndNS: 15_000_000},
		}}, skewedJobs(3, 90, 500_000)},
		"forwarding-off": {SimConfig{Nodes: 4, Seed: 20100424,
			Policy: Policy{ForwardThreshold: 1 << 30, StealMinScore: 1 << 30},
		}, skewedJobs(4, 60, 400_000)},
		"tight-policy-net-drop": {SimConfig{Nodes: 3, Seed: 5, Faults: netFaults("net-drop", 5),
			Policy: Policy{ForwardThreshold: 2, Batch: 2, StealMinScore: 1, MaxHops: 1},
		}, skewedJobs(3, 90, 300_000)},
	}
}

func TestSimGolden(t *testing.T) {
	const path = "testdata/sim_golden.json"
	got := make(map[string]simFingerprint)
	for name, c := range goldenCases(t) {
		rep, err := RunSim(c.cfg, c.jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Violations) > 0 {
			t.Errorf("%s: violations: %v", name, rep.Violations)
		}
		got[name] = fingerprint(rep)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]simFingerprint)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d configs, the test runs %d", path, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: event log drifted\n got  %+v\n want %+v", name, g, w)
		}
	}
}
