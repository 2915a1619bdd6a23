package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptivetc"
	"adaptivetc/internal/jobstore"
	"adaptivetc/internal/lang"
	"adaptivetc/internal/progstore"
	"adaptivetc/internal/trace"
)

// probeJobstore times the journal alone: the queued append, the group
// commit with one and with all committers, and reopening what was written.
func (p *probes) probeJobstore() error {
	dir, err := makeScratch("jobstore-")
	if err != nil {
		return err
	}
	defer removeScratch(dir)
	store, _, err := jobstore.Open(dir, jobstore.Config{})
	if err != nil {
		return err
	}
	submit := &jobstore.Record{T: jobstore.TSubmit, ID: "j1", Req: []byte(`{"program":"fib","n":16,"engine":"adaptivetc"}`)}
	start := &jobstore.Record{T: jobstore.TStart, ID: "j1"}
	var appendErr error
	keep := func(err error) {
		if err != nil && appendErr == nil {
			appendErr = err
		}
	}
	p.set("jobstore.append_us", timeLoop(microBudget, func() { keep(store.Append(start)) })/1e3, "us")

	const commits = 120
	t0 := time.Now()
	for i := 0; i < commits; i++ {
		keep(store.AppendSync(submit))
	}
	p.set("jobstore.appendsync_us.c1", float64(time.Since(t0).Microseconds())/commits, "us")

	// All committers at once: each caller's latency, sharing fsyncs.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lat []time.Duration
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				t0 := time.Now()
				err := store.AppendSync(submit)
				d := time.Since(t0)
				mu.Lock()
				keep(err)
				lat = append(lat, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	p.set("jobstore.appendsync_us.cP", float64(total.Microseconds())/float64(len(lat)), "us")
	if err := store.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}

	t0 = time.Now()
	store, rec, err := jobstore.Open(dir, jobstore.Config{})
	open := time.Since(t0)
	if err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	p.set("jobstore.open_ms", float64(open)/float64(time.Millisecond), "ms")
	p.set("jobstore.replay_records_per_s", float64(rec.Records)/open.Seconds(), "1/s")
	return nil
}

// unseenSource returns the n-queens source with a parameter value nobody
// has compiled: a new content hash.
func unseenSource(i int) string {
	return lang.NQueensSrc + fmt.Sprintf("\nparam variant = %d\n", i)
}

// probePrograms times the compile cache on its four paths, single-flight
// compilation, and the DSL front end against the native Go program.
func (p *probes) probePrograms() error {
	store := progstore.New(progstore.Config{})
	const misses = 24
	t0 := time.Now()
	for i := 0; i < misses; i++ {
		if _, _, err := store.Put("probe", unseenSource(i)); err != nil {
			return err
		}
	}
	p.set("progstore.put_miss_us", float64(time.Since(t0).Microseconds())/misses, "us")

	meta, _, err := store.Put("nqueens", lang.NQueensSrc)
	if err != nil {
		return err
	}
	var loopErr error
	p.set("progstore.put_hit_us", timeLoop(microBudget/2, func() {
		if _, _, err := store.Put("nqueens", lang.NQueensSrc); err != nil {
			loopErr = err
		}
	})/1e3, "us")
	p.set("progstore.program_hit_us", timeLoop(microBudget/2, func() {
		if _, err := store.Program(meta.Hash, map[string]int64{"n": 8}); err != nil {
			loopErr = err
		}
	})/1e3, "us")
	if loopErr != nil {
		return loopErr
	}
	const variants = 16 // under the per-entry variant cap, so none is evicted
	t0 = time.Now()
	for n := 0; n < variants; n++ {
		if _, err := store.Program(meta.Hash, map[string]int64{"n": int64(20 + n)}); err != nil {
			return err
		}
	}
	p.set("progstore.variant_miss_us", float64(time.Since(t0).Microseconds())/variants, "us")

	// Eight submitters of one never-seen source should cost one compile.
	before := store.Snapshot().Misses
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[c] = store.Put("probe", unseenSource(-1))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	p.set("progstore.singleflight_compiles", float64(store.Snapshot().Misses-before), "count")

	p.set("lang.compile_us", timeLoop(microBudget, func() {
		if _, err := lang.Compile("nqueens", lang.NQueensSrc, nil); err != nil {
			loopErr = err
		}
	})/1e3, "us")
	p.set("lang.canonicalize_us", timeLoop(microBudget/2, func() {
		if _, err := lang.Canonicalize(lang.NQueensSrc); err != nil {
			loopErr = err
		}
	})/1e3, "us")
	if loopErr != nil {
		return loopErr
	}

	native, err := solveSerial(progSpec{Program: "nqueens-array", N: 8})
	if err != nil {
		return err
	}
	interp, err := solveSerial(progSpec{Program: "atc-nqueens", N: 8})
	if err != nil {
		return err
	}
	serial := adaptivetc.Options{Platform: adaptivetc.NewRealPlatform(1)}
	tn, _, err := timedRuns(adaptivetc.NewSerial(), native, serial, engineReps)
	if err != nil {
		return err
	}
	ti, _, err := timedRuns(adaptivetc.NewSerial(), interp, serial, engineReps)
	if err != nil {
		return err
	}
	p.set("lang.interp_overhead_x", float64(ti)/float64(tn), "ratio")
	p.set("lang.interp.ns_per_node", float64(ti.Nanoseconds())/float64(interp.nodes), "ns")
	return nil
}

// probeTrace times the scheduler's own trace recorder on the engine that
// feeds it most, and the invariant checker over what it recorded.
func (p *probes) probeTrace() error {
	s, err := solveSerial(engineProbeProg)
	if err != nil {
		return err
	}
	off, _, err := timedRuns(adaptivetc.NewCilk(), s, p.realOpts(), engineReps)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	defer rec.Release()
	opt := p.realOpts()
	opt.Tracer = rec
	on, res, err := timedRuns(adaptivetc.NewCilk(), s, opt, engineReps)
	if err != nil {
		return err
	}
	p.set("trace.record_overhead_x", float64(on)/float64(off), "ratio")
	events := rec.EventCount()
	p.set("trace.events_per_node", float64(events)/float64(s.nodes), "count")
	t0 := time.Now()
	if err := rec.Check(res.Value, s.want); err != nil {
		return fmt.Errorf("invariant check of a clean run: %w", err)
	}
	p.set("trace.check_ns_per_event", float64(time.Since(t0).Nanoseconds())/float64(events), "ns")
	return nil
}
