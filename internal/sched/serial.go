package sched

import "adaptivetc/internal/vtime"

// Serial runs the program on one worker with no scheduling machinery at all.
// It is the baseline every speedup in the paper (and here) is computed
// against.
type Serial struct{}

// Name implements Engine.
func (Serial) Name() string { return "serial" }

// Run implements Engine. Options.Ctx is honoured: cancellation aborts the
// recursion at the next node visit and is reported as the run's error.
func (s Serial) Run(p Program, opt Options) (res Result, err error) {
	costs := DefaultCosts()
	var w Walker
	var value int64
	stop := &Stop{}
	release := WatchContext(opt.Ctx, stop)
	defer release()
	defer func() {
		Recovered(recover(), func(e error) {
			res, err = Result{Workers: 1, Engine: s.Name(), Program: p.Name(), Stats: w.Stats}, e
		}, true)
	}()
	plat := opt.PlatformOrDefault()
	makespan := plat.Run(1, func(proc vtime.Proc) {
		w.Proc = proc
		w.Start(p, &costs, stop, nil)
		start := proc.Now()
		if opt.FirstSolution {
			value, _ = w.FirstSolution(p.Root(), 0)
		} else {
			value = w.Sequence(p.Root(), 0)
		}
		w.Stats.WorkerTime += proc.Now() - start
	})
	w.Stats.DeriveWorkTime()
	return Result{
		Value:    value,
		Makespan: makespan,
		Workers:  1,
		Engine:   s.Name(),
		Program:  p.Name(),
		Stats:    w.Stats,
	}, nil
}
