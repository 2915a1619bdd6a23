package experiments

import (
	"fmt"
	"io"

	"adaptivetc"
)

// Every generator below is written submit-all-then-collect: the first loop
// schedules each experiment cell through the driver in runner.go, the second
// awaits them in the same order and formats. Under a sequential Config the
// cells run inline at submission; under Config.Parallel > 1 they overlap on
// the pool — the collect loop is single-threaded either way, so the report
// and the CSV come out byte-identical.

// engines4 is the comparison set of Figure 4: Cilk, Cilk-SYNCHED (only for
// taskprivate benchmarks), Tascell and AdaptiveTC.
func engines4(taskprivate bool) []adaptivetc.Engine {
	es := []adaptivetc.Engine{adaptivetc.NewCilk()}
	if taskprivate {
		es = append(es, adaptivetc.NewCilkSynched())
	}
	return append(es, adaptivetc.NewTascell(), adaptivetc.NewAdaptiveTC())
}

// Figure4 regenerates the speedup-vs-threads curves for all eight
// benchmarks (paper Figure 4 (a)–(h)).
func Figure4(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Figure 4 — speedup vs threads, scale=%s", cfg.Scale),
		"Speedup = serial virtual time / engine virtual makespan.")
	threads := cfg.threads()
	wls := Figure4Workloads(cfg.Scale)
	bases := make([]*future, len(wls))
	sweeps := make([][]*sweep, len(wls))
	for i, wl := range wls {
		bases[i] = cfg.submitSerial(wl.Prog)
		for _, e := range engines4(wl.Taskprivate) {
			sweeps[i] = append(sweeps[i], cfg.submitSweep(e, wl.Prog, nil))
		}
	}
	for i, wl := range wls {
		base, err := awaitBaseline(bases[i])
		if err != nil {
			return err
		}
		var rows []series
		for _, s := range sweeps[i] {
			row, err := cfg.collectSweep(s, base, "fig4")
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		printSpeedupTable(w, fmt.Sprintf("Figure 4(%c): %s  [paper: %s; instance: %s, serial %.1fms]",
			'a'+i, wl.Name, wl.Paper, wl.Prog.Name(), float64(base.makespan)/1e6), threads, rows)
	}
	return nil
}

// Figure5 regenerates the 8-thread bar chart with Cilk's execution time as
// the baseline (paper Figure 5).
func Figure5(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Figure 5 — speedup at %d threads, baseline Cilk, scale=%s", cfg.threadsMax(), cfg.Scale),
		"Each cell is Cilk's makespan divided by the engine's makespan at the full thread count.")
	n := cfg.threadsMax()
	wls := Figure4Workloads(cfg.Scale)
	bases := make([]*future, len(wls))
	cilks := make([]*future, len(wls))
	rest := make([][]*future, len(wls)) // nil entry = engine skipped for this workload
	for i, wl := range wls {
		bases[i] = cfg.submitSerial(wl.Prog)
		cilks[i] = cfg.submit(adaptivetc.NewCilk(), wl.Prog, adaptivetc.Options{Workers: n, Seed: cfg.seed()})
		for _, e := range []adaptivetc.Engine{adaptivetc.NewCilkSynched(), adaptivetc.NewTascell(), adaptivetc.NewAdaptiveTC()} {
			if e.Name() == "cilk-synched" && !wl.Taskprivate {
				rest[i] = append(rest[i], nil)
				continue
			}
			rest[i] = append(rest[i], cfg.submit(e, wl.Prog, adaptivetc.Options{Workers: n, Seed: cfg.seed()}))
		}
	}
	fmt.Fprintf(w, "\n%-18s%14s%14s%14s%14s\n", "benchmark", "cilk", "cilk-synched", "tascell", "adaptivetc")
	for i, wl := range wls {
		base, err := awaitBaseline(bases[i])
		if err != nil {
			return err
		}
		cilkRes, err := cilks[i].await()
		if err != nil {
			return err
		}
		if err := base.check(cilkRes); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s%14.2f", wl.Name, 1.0)
		for _, fu := range rest[i] {
			if fu == nil {
				fmt.Fprintf(w, "%14s", "—")
				continue
			}
			res, err := fu.await()
			if err != nil {
				return err
			}
			if err := base.check(res); err != nil {
				return err
			}
			fmt.Fprintf(w, "%14.2f", float64(cilkRes.Makespan)/float64(res.Makespan))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func (c Config) threadsMax() int {
	ts := c.threads()
	return ts[len(ts)-1]
}

// Table2 regenerates the one-thread execution times and their ratios to the
// serial program (paper Table 2).
func Table2(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Table 2 — execution time with one thread, scale=%s", cfg.Scale),
		"Virtual milliseconds and (ratio to serial), one worker.")
	engines := []adaptivetc.Engine{
		adaptivetc.NewTascell(), adaptivetc.NewCilk(),
		adaptivetc.NewCilkSynched(), adaptivetc.NewAdaptiveTC(),
	}
	wls := Figure4Workloads(cfg.Scale)
	bases := make([]*future, len(wls))
	cells := make([][]*future, len(wls)) // nil entry = engine skipped
	for i, wl := range wls {
		bases[i] = cfg.submitSerial(wl.Prog)
		for _, e := range engines {
			if e.Name() == "cilk-synched" && !wl.Taskprivate {
				cells[i] = append(cells[i], nil)
				continue
			}
			cells[i] = append(cells[i], cfg.submit(e, wl.Prog, adaptivetc.Options{Workers: 1, Seed: cfg.seed()}))
		}
	}
	fmt.Fprintf(w, "\n%-18s%12s", "benchmark", "serial")
	for _, e := range engines {
		fmt.Fprintf(w, "%20s", e.Name())
	}
	fmt.Fprintln(w)
	for i, wl := range wls {
		base, err := awaitBaseline(bases[i])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s%10.1fms", wl.Name, float64(base.makespan)/1e6)
		for _, fu := range cells[i] {
			if fu == nil {
				fmt.Fprintf(w, "%20s", "—")
				continue
			}
			res, err := fu.await()
			if err != nil {
				return err
			}
			if err := base.check(res); err != nil {
				return err
			}
			fmt.Fprintf(w, "%12.1fms (%4.2f)", float64(res.Makespan)/1e6,
				float64(res.Makespan)/float64(base.makespan))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// breakdownRow prints one engine's phase percentages as text and as a
// stacked bar (w=working, c=copy, d=deque/nested, p=poll, W=wait, s=steal).
func breakdownRow(w io.Writer, name string, st adaptivetc.Stats) {
	total := float64(st.WorkerTime)
	if total <= 0 {
		total = 1
	}
	pct := func(v int64) float64 { return 100 * float64(v) / total }
	fmt.Fprintf(w, "%-16s working=%6.2f%%  taskprivate/copy=%6.2f%%  deque/nested=%6.2f%%  poll=%5.2f%%  wait=%5.2f%%  steal/idle=%5.2f%%\n",
		name, pct(st.WorkTime), pct(st.CopyTime), pct(st.DequeTime+st.RespondTime),
		pct(st.PollTime), pct(st.WaitTime), pct(st.StealTime))
	renderBar(w, name, []struct {
		mark byte
		pct  float64
	}{
		{'w', pct(st.WorkTime)},
		{'c', pct(st.CopyTime)},
		{'d', pct(st.DequeTime + st.RespondTime)},
		{'p', pct(st.PollTime)},
		{'W', pct(st.WaitTime)},
		{'s', pct(st.StealTime)},
	})
}

// Figure6 regenerates the one-thread overhead breakdowns (paper Figure 6).
func Figure6(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Figure 6 — overhead breakdown with one thread, scale=%s", cfg.Scale),
		"Shares of a single worker's time: working, taskprivate/workspace copying, deque or nested-function management.")
	engines := []adaptivetc.Engine{
		adaptivetc.NewTascell(), adaptivetc.NewCilk(),
		adaptivetc.NewCilkSynched(), adaptivetc.NewAdaptiveTC(),
	}
	wls := figure67Workloads(cfg.Scale)
	cells := make([][]*future, len(wls))
	names := make([][]string, len(wls))
	for i, wl := range wls {
		for _, e := range engines {
			if e.Name() == "cilk-synched" && !wl.Taskprivate {
				continue
			}
			cells[i] = append(cells[i], cfg.submit(e, wl.Prog, adaptivetc.Options{Workers: 1, Profile: true, Seed: cfg.seed()}))
			names[i] = append(names[i], e.Name())
		}
	}
	for i, wl := range wls {
		fmt.Fprintf(w, "\nFigure 6(%c): %s\n", 'a'+i, wl.Name)
		for j, fu := range cells[i] {
			res, err := fu.await()
			if err != nil {
				return err
			}
			breakdownRow(w, names[i][j], res.Stats)
		}
	}
	return nil
}

// figure67Workloads are the three benchmarks of Figures 6 and 7.
func figure67Workloads(s Scale) []Workload {
	all := Figure4Workloads(s)
	return []Workload{all[0], all[1], all[6]} // Nqueen-array, Nqueen-compute, Fib
}

// Figure7 regenerates Tascell's multi-thread overhead breakdown (paper
// Figure 7): working vs polling vs waiting for children at 2, 4, 8 threads.
func Figure7(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Figure 7 — Tascell overhead breakdown with multiple threads, scale=%s", cfg.Scale),
		"Aggregated over all workers; wait_children is the non-suspendable join cost the paper highlights.")
	counts := []int{2, 4, 8}
	wls := figure67Workloads(cfg.Scale)
	cells := make([][]*future, len(wls))
	for i, wl := range wls {
		for _, n := range counts {
			cells[i] = append(cells[i], cfg.submit(adaptivetc.NewTascell(), wl.Prog,
				adaptivetc.Options{Workers: n, Profile: true, Seed: cfg.seed()}))
		}
	}
	for i, wl := range wls {
		fmt.Fprintf(w, "\nFigure 7(%c): %s\n", 'a'+i, wl.Name)
		for j, n := range counts {
			res, err := cells[i][j].await()
			if err != nil {
				return err
			}
			st := res.Stats
			total := float64(st.WorkerTime)
			fmt.Fprintf(w, "  %d threads: working=%6.2f%%  polling=%5.2f%%  wait_children=%6.2f%%  respond=%5.2f%%  idle/steal=%6.2f%%\n",
				n, 100*float64(st.WorkTime)/total, 100*float64(st.PollTime)/total,
				100*float64(st.WaitTime)/total, 100*float64(st.RespondTime)/total,
				100*float64(st.StealTime)/total)
		}
	}
	return nil
}

// Figure8 reports the shape of the unbalanced Sudoku input1 tree along its
// heavy path (paper Figure 8). Pure tree analysis, no engine cells — it
// stays sequential regardless of Config.Parallel.
func Figure8(cfg Config) error {
	w := cfg.out()
	_, input1, _ := SudokuInputs(cfg.Scale)
	header(w, fmt.Sprintf("Figure 8 — the unbalanced tree of Sudoku input1, scale=%s", cfg.Scale),
		"Subtree shares along the heavy path; the paper's tree (1,934,719,465 nodes, depth 63) shows 61%/28%/11% at depth 1.")
	st := adaptivetc.Analyze(input1, 0)
	fmt.Fprintf(w, "\nsize=%d; leaves=%d; depth=%d\n", st.Nodes, st.Leaves, st.Depth)
	levels, err := HeavyPath(input1, 4)
	if err != nil {
		return err
	}
	for d, shares := range levels {
		fmt.Fprintf(w, "depth %d children of heavy node:", d+1)
		for _, p := range shares {
			fmt.Fprintf(w, "  %.2f%%", p)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure9 regenerates the cut-off starvation experiment on Sudoku input1
// (paper Figure 9).
func Figure9(cfg Config) error {
	w := cfg.out()
	_, input1, _ := SudokuInputs(cfg.Scale)
	cutP := cfg.CutoffProgrammer
	if cutP <= 0 {
		cutP = 3
	}
	header(w, fmt.Sprintf("Figure 9 — Sudoku input1: AdaptiveTC vs cut-off strategies, scale=%s", cfg.Scale),
		fmt.Sprintf("Cutoff-programmer uses depth %d; Cutoff-library uses ⌈log2 N⌉. The paper reports both starving past 4 threads.", cutP))
	baseFu := cfg.submitSerial(input1)
	var sweeps []*sweep
	for _, e := range []adaptivetc.Engine{
		adaptivetc.NewCilk(), adaptivetc.NewTascell(), adaptivetc.NewAdaptiveTC(),
		adaptivetc.NewCutoffProgrammer(), adaptivetc.NewCutoffLibrary(),
	} {
		// Options.Cutoff is the programmer's depth: without ForceCutoff no
		// engine but Cutoff-programmer reads it.
		sweeps = append(sweeps, cfg.submitSweep(e, input1, func(o *adaptivetc.Options) { o.Cutoff = cutP }))
	}
	base, err := awaitBaseline(baseFu)
	if err != nil {
		return err
	}
	threads := cfg.threads()
	var rows []series
	for _, s := range sweeps {
		row, err := cfg.collectSweep(s, base, "fig9")
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	printSpeedupTable(w, fmt.Sprintf("Sudoku input1 [%s, serial %.1fms]", input1.Name(), float64(base.makespan)/1e6), threads, rows)
	return nil
}

// Figure10 regenerates the unbalanced-tree load-balancing comparison
// (paper Figure 10): Sudoku input1/input2 plus the three Table 3 tree
// pairs, under Cilk-SYNCHED, Tascell and AdaptiveTC.
func Figure10(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Figure 10 — speedup on unbalanced trees, scale=%s", cfg.Scale),
		"Cilk suspends waiting tasks; Tascell cannot (hurts right-heavy trees); AdaptiveTC suspends everything but special tasks.")
	threads := cfg.threads()
	engines := []adaptivetc.Engine{adaptivetc.NewCilkSynched(), adaptivetc.NewTascell(), adaptivetc.NewAdaptiveTC()}

	// The Sudoku inputs share panel (a); each Table 3 tree pair shares the
	// next letter. Flatten into one submit list so every program's cells are
	// in flight before the first panel is formatted.
	type panel struct {
		label  string // panel title minus the serial time, filled at collect
		base   *future
		sweeps []*sweep
	}
	var panels []panel
	submit := func(label string, p adaptivetc.Program) {
		pl := panel{label: label, base: cfg.submitSerial(p)}
		for _, e := range engines {
			pl.sweeps = append(pl.sweeps, cfg.submitSweep(e, p, nil))
		}
		panels = append(panels, pl)
	}
	_, input1, input2 := SudokuInputs(cfg.Scale)
	for _, p := range []adaptivetc.Program{input1, input2} {
		submit(fmt.Sprintf("Figure 10(a): %s", p.Name()), p)
	}
	specs := Table3Specs(cfg.Scale)
	for i := 0; i < len(specs); i += 2 {
		for _, spec := range specs[i : i+2] {
			p := newTree(spec)
			submit(fmt.Sprintf("Figure 10(%c): %s", 'b'+i/2, p.Name()), p)
		}
	}

	for _, pl := range panels {
		base, err := awaitBaseline(pl.base)
		if err != nil {
			return err
		}
		var rows []series
		for _, s := range pl.sweeps {
			row, err := cfg.collectSweep(s, base, "fig10")
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		printSpeedupTable(w, fmt.Sprintf("%s [serial %.1fms]", pl.label, float64(base.makespan)/1e6), threads, rows)
	}
	return nil
}

// Table3 describes the six random unbalanced trees (paper Table 3). Pure
// tree analysis, no engine cells — it stays sequential regardless of
// Config.Parallel.
func Table3(cfg Config) error {
	w := cfg.out()
	header(w, fmt.Sprintf("Table 3 — randomly generated unbalanced trees, scale=%s", cfg.Scale),
		"Scaled stand-ins for the paper's ~2-billion-node trees; same fraction vectors, same L/R mirroring.")
	fmt.Fprintf(w, "\n%-8s%12s%12s%7s  %s\n", "input", "nodes", "leaves", "depth", "depth-1 subtree shares (%)")
	for _, spec := range Table3Specs(cfg.Scale) {
		st := adaptivetc.Analyze(newTree(spec), 0)
		fmt.Fprintf(w, "%-8s%12d%12d%7d  ", spec.Label, st.Nodes, st.Leaves, st.Depth)
		for _, p := range st.Depth1Percent() {
			fmt.Fprintf(w, "%.3f ", p)
		}
		fmt.Fprintln(w)
	}
	return nil
}
