package experiments

import (
	"bytes"
	"strings"
	"testing"

	"adaptivetc"
	"adaptivetc/problems/nqueens"
)

// TestParallelOutputIdentical is the driver's core guarantee: a parallel
// Config produces byte-for-byte the same report and the same CSV as a
// sequential one, because cells are collected in submission order and every
// cell's seed comes from the Config alone.
func TestParallelOutputIdentical(t *testing.T) {
	run := func(parallel int) (report, csv string) {
		var out, samples bytes.Buffer
		cfg := quickCfg(&out)
		cfg.Repeats = 2
		cfg.CSV = &samples
		cfg.Parallel = parallel
		if err := Figure9(cfg); err != nil {
			t.Fatalf("fig9 parallel=%d: %v", parallel, err)
		}
		if err := Figure5(cfg); err != nil {
			t.Fatalf("fig5 parallel=%d: %v", parallel, err)
		}
		return out.String(), samples.String()
	}
	seqReport, seqCSV := run(1)
	parReport, parCSV := run(8)
	if seqReport != parReport {
		t.Errorf("report differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqReport, parReport)
	}
	if seqCSV != parCSV {
		t.Errorf("CSV differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqCSV, parCSV)
	}
	if seqCSV == "" {
		t.Error("no CSV samples were written")
	}
}

// TestParallelDefaults pins the Parallel knob's edge cases: zero and
// negative mean sequential.
func TestParallelDefaults(t *testing.T) {
	for _, v := range []int{-1, 0, 1} {
		c := Config{Parallel: v}
		if got := c.parallel(); got != 1 {
			t.Errorf("Config{Parallel: %d}.parallel() = %d, want 1", v, got)
		}
	}
	c := Config{Parallel: 4}
	if got := c.parallel(); got != 4 {
		t.Errorf("Config{Parallel: 4}.parallel() = %d, want 4", got)
	}
}

// panicEngine blows up on Run, standing in for a Sim livelock guard firing
// inside a pooled cell.
type panicEngine struct{}

func (panicEngine) Name() string { return "panic" }
func (panicEngine) Run(adaptivetc.Program, adaptivetc.Options) (adaptivetc.Result, error) {
	panic("boom")
}

// TestFutureRepanics checks that a panic inside a pooled cell surfaces on
// the collecting goroutine rather than killing the process from a worker.
func TestFutureRepanics(t *testing.T) {
	cfg := Config{Parallel: 2}
	fu := cfg.submit(panicEngine{}, nil, adaptivetc.Options{})
	defer func() {
		if r := recover(); r == nil {
			t.Error("await did not re-raise the cell's panic")
		}
	}()
	fu.await()
}

// TestRunnerPanicPropagation drives a real panic — the Sim livelock guard,
// fired deterministically by VirtualLimit: 1 — through both execution
// modes. Sequentially the cell runs inline, so submit itself panics;
// pooled, the panic must travel through the future and re-raise at await,
// not kill the process from a pool goroutine.
func TestRunnerPanicPropagation(t *testing.T) {
	prog := nqueens.NewArray(6)
	opt := adaptivetc.Options{Workers: 2, VirtualLimit: 1}
	catch := func(f func()) (recovered any) {
		defer func() { recovered = recover() }()
		f()
		return nil
	}
	check := func(mode string, r any) {
		t.Helper()
		if r == nil {
			t.Fatalf("%s: the VirtualLimit=1 livelock guard did not fire", mode)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "virtual time limit") {
			t.Fatalf("%s: recovered %v, want the Sim limit panic", mode, r)
		}
	}

	seq := Config{Parallel: 1}
	check("sequential submit", catch(func() { seq.submit(adaptivetc.NewCilk(), prog, opt) }))

	pool := Config{Parallel: 4}
	fu := pool.submit(adaptivetc.NewCilk(), prog, opt)
	check("pooled await", catch(func() { fu.await() }))

	// The pool survives its cell's panic: the semaphore slot was released,
	// so later cells still run to completion.
	res, err := pool.submit(adaptivetc.NewCilk(), prog, adaptivetc.Options{Workers: 2}).await()
	if err != nil {
		t.Fatalf("cell after panic: %v", err)
	}
	if res.Value == 0 {
		t.Fatal("cell after panic returned no solutions")
	}
}
