package adaptivetc_test

import (
	"testing"

	"adaptivetc"
	"adaptivetc/internal/faults"
	"adaptivetc/problems/nqueens"
	"adaptivetc/problems/synthtree"
)

// TestNodeFaultsOncePerNode is the law of the one node site: every node an
// engine visits, by whatever route — a task, a fake task, a sequence
// version, a Tascell level — enters sched.Walker.Visit and draws its node
// faults there, once. On the Sim at P = 1 nothing runs beside the one
// worker, so a plan that stalls every node by d must add exactly
// Stats.Nodes × d to the makespan and change nothing else.
func TestNodeFaultsOncePerNode(t *testing.T) {
	const stallNS = 1000
	progs := []adaptivetc.Program{nqueens.NewArray(7), synthtree.New(synthtree.Tree3(3000))}
	for _, name := range adaptivetc.EngineNames() {
		if name == "serial" { // the oracle draws no faults
			continue
		}
		e, err := adaptivetc.EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			base, err := e.Run(p, adaptivetc.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p.Name(), err)
			}
			plan := faults.New(faults.Spec{Stall: 1, StallNS: stallNS})
			got, err := e.Run(p, adaptivetc.Options{Workers: 1, Faults: plan})
			if err != nil {
				t.Fatalf("%s/%s stalled: %v", name, p.Name(), err)
			}
			if got.Value != base.Value || got.Stats.Nodes != base.Stats.Nodes {
				t.Fatalf("%s/%s: stalls changed the run: value %d→%d, nodes %d→%d",
					name, p.Name(), base.Value, got.Value, base.Stats.Nodes, got.Stats.Nodes)
			}
			added, want := got.Makespan-base.Makespan, base.Stats.Nodes*stallNS
			if added != want {
				t.Errorf("%s/%s: stalls added %d ns over %d nodes, want %d: %d nodes drew no stall",
					name, p.Name(), added, base.Stats.Nodes, want, (want-added)/stallNS)
			}
		}
	}
}
