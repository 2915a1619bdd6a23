package experiments

import (
	"bytes"
	"strings"
	"testing"

	"adaptivetc/problems/sudoku"
)

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Scale: Quick, Out: buf, MaxThreads: 4, Seed: 1}
}

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{"quick": Quick, "default": Default, "": Default, "full": Full}
	for in, want := range cases {
		got, ok := ParseScale(in)
		if !ok || got != want {
			t.Errorf("ParseScale(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := ParseScale("bogus"); ok {
		t.Error("accepted bogus scale")
	}
	if Quick.String() != "quick" || Default.String() != "default" || Full.String() != "full" {
		t.Error("Scale.String broken")
	}
}

func TestWorkloadsCoverTable1(t *testing.T) {
	for _, s := range []Scale{Quick, Default, Full} {
		wls := Figure4Workloads(s)
		if len(wls) != 8 {
			t.Fatalf("scale %v: %d workloads, want the 8 of Table 1", s, len(wls))
		}
		names := map[string]bool{}
		for _, wl := range wls {
			names[wl.Name] = true
			if wl.Prog == nil {
				t.Errorf("%v/%s: nil program", s, wl.Name)
			}
		}
		for _, want := range []string{"Nqueen-array", "Nqueen-compute", "Strimko", "Knight's Tour", "Sudoku", "Pentomino", "Fib", "Comp"} {
			if !names[want] {
				t.Errorf("scale %v: missing %s", s, want)
			}
		}
	}
}

func TestTaskprivateFlags(t *testing.T) {
	for _, wl := range Figure4Workloads(Quick) {
		hasPayload := wl.Prog.Root().Bytes() > 0
		if wl.Taskprivate != hasPayload {
			t.Errorf("%s: Taskprivate=%v but workspace payload=%v", wl.Name, wl.Taskprivate, hasPayload)
		}
	}
}

func TestTable3SpecsPairs(t *testing.T) {
	specs := Table3Specs(Quick)
	if len(specs) != 6 {
		t.Fatalf("%d specs, want 6", len(specs))
	}
	for i := 0; i < 6; i += 2 {
		l, r := specs[i], specs[i+1]
		if !strings.HasSuffix(l.Label, "L") || !strings.HasSuffix(r.Label, "R") {
			t.Errorf("pair %d labels %q/%q", i/2, l.Label, r.Label)
		}
		if l.Size != r.Size {
			t.Errorf("pair %d sizes differ", i/2)
		}
	}
}

func TestByNameDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := ByName("table3", quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tree3L") {
		t.Errorf("table3 output missing tree3L:\n%s", buf.String())
	}
	if err := ByName("nope", quickCfg(&buf)); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFigure5Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure5(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Nqueen-array", "Fib", "adaptivetc"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 5 output missing %q", want)
		}
	}
	checkGolden(t, "fig5_quick.golden", out)
}

func TestTable2Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serial") {
		t.Error("table 2 output missing serial column")
	}
	checkGolden(t, "table2_quick.golden", buf.String())
}

func TestFigure6And7Run(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure6(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "taskprivate/copy") {
		t.Error("figure 6 output missing copy column")
	}
	buf.Reset()
	if err := Figure7(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wait_children") {
		t.Error("figure 7 output missing wait_children")
	}
}

func TestFigure8HeavyPath(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure8(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "depth 1 children") {
		t.Errorf("figure 8 output:\n%s", buf.String())
	}
}

func TestHeavyPathShares(t *testing.T) {
	p := sudoku.Input1(3, 48)
	levels, err := HeavyPath(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) == 0 {
		t.Fatal("no levels")
	}
	// Shares are percentages of the whole tree: every level's total must
	// be ≤ 100 and strictly decreasing as we descend the heavy path.
	prevTotal := 101.0
	for i, shares := range levels {
		var total float64
		for _, s := range shares {
			if s < 0 || s > 100 {
				t.Fatalf("level %d share %f out of range", i+1, s)
			}
			total += s
		}
		if total > prevTotal+1e-9 {
			t.Fatalf("level %d total %.2f exceeds parent level %.2f", i+1, total, prevTotal)
		}
		prevTotal = total
	}
}

// TestFigure9CutoffStarves asserts the paper's core Figure 9 claim at quick
// scale: the cut-off strategies stop scaling while AdaptiveTC continues. It
// is the only figure that runs the two cut-off engines, so its report is
// pinned like Figure 5's.
func TestFigure9CutoffStarves(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup sweep")
	}
	var buf bytes.Buffer
	cfg := Config{Scale: Quick, Out: &buf, MaxThreads: 8, Seed: 1}
	if err := Figure9(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cutoff-library") {
		t.Fatalf("figure 9 output:\n%s", out)
	}
	checkGolden(t, "fig9_quick.golden", out)
}

func TestStealCountsRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := StealCounts(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"migrations", "tascell", "adaptivetc", "tree3R"} {
		if !strings.Contains(out, want) {
			t.Errorf("steals output missing %q", want)
		}
	}
}

func TestRenderChart(t *testing.T) {
	var buf bytes.Buffer
	rows := []series{
		{name: "adaptivetc", values: []float64{1, 2, 4, 7.8}},
		{name: "cilk", values: []float64{0.4, 0.8, 1.6, 3.2}},
	}
	renderChart(&buf, []int{1, 2, 4, 8}, rows)
	out := buf.String()
	if !strings.Contains(out, "A=adaptivetc") || !strings.Contains(out, "C=cilk") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "threads") {
		t.Fatal("axis label missing")
	}
	// Degenerate inputs must not crash.
	renderChart(&buf, nil, rows)
	renderChart(&buf, []int{1}, nil)
}

func TestCSVExport(t *testing.T) {
	var out, csv bytes.Buffer
	CSVHeader(&csv)
	cfg := Config{Scale: Quick, Out: &out, MaxThreads: 2, Seed: 1, CSV: &csv}
	if err := Figure9(cfg); err != nil {
		t.Fatal(err)
	}
	got := csv.String()
	if !strings.HasPrefix(got, "experiment,workload,engine,threads,speedup\n") {
		t.Fatalf("missing CSV header:\n%s", got)
	}
	if !strings.Contains(got, "fig9,") || !strings.Contains(got, ",adaptivetc,") {
		t.Fatalf("missing rows:\n%s", got)
	}
}
