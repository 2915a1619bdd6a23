// The idle path of wall-clock runtimes: what a thief does after a failed
// steal. It retries at once for a short budget (spin); past the budget it
// parks when it may and yields the OS thread when it may not; a busy worker's
// Push wakes one parked thief.
//
// A thief may park only when it has nothing left to signal: after announcing
// itself in Runtime.sleepers it re-checks that every other deque of its
// runtime is empty and already has need_task raised. The paper's
// stolen_num/max_stolen_num protocol (Figure 3(d)/(e)) is therefore
// untouched — a thief keeps failing, and so keeps bumping stolen_num, until
// every victim that could create work for it has been told to — and no
// wake-up is lost: the announcement precedes the re-check, Push publishes its
// entry before it loads sleepers, so either the thief sees the entry or the
// pusher sees the thief. A park also ends after parkMax, and the thief then
// makes one more steal attempt before it may park again: a victim whose
// need_task was cleared by somebody else's steal gets signalled again, and a
// stop that no worker reports (fail, complete and claimSolution wake
// everyone) is seen within that bound.
//
// Under Sim none of this runs (Runtime.wake is nil): a failed steal charges
// Costs.Steal and yields once, through yieldIdle, so the Sim core makes the
// next attempts itself (trySteal); sleepers stays zero, and Push pays one
// load of it.
package wsrt

import (
	"runtime"
	"time"
)

// spinFails consecutive failed steals are retried at once. A thief needs
// max_stolen_num failures before it may park anyway, and a victim in the
// check version answers a raised need_task within a node visit — well inside
// this budget, where a parked thief would cost it a wake-up.
const spinFails = 32

// parkMax bounds one park. It is a variable only so that tests can stretch
// it until nothing but a wake-up ends a park.
var parkMax = time.Millisecond

// testAfterAnnounce, when non-nil, is called by park between announcing the
// sleeper and the re-check. Tests use it to interleave a push
// deterministically inside that window; it must stay nil outside tests.
var testAfterAnnounce func(*Worker)

// idleBackoff is the thief loop's answer to a failed steal on a wall-clock
// runtime. Past the spin budget the thief parks when it may, and otherwise
// yields the OS thread — so a runtime with more workers than cores lets its
// busy workers run — and goes on stealing, and signalling.
func (w *Worker) idleBackoff() {
	w.idleFails++
	if w.idleFails > spinFails && !w.park() {
		runtime.Gosched()
	}
}

// park blocks the thief until a wake-up or parkMax, and reports whether it
// parked at all: false means the re-check found work to steal, a victim not
// yet signalled, or a finished or stopped job.
func (w *Worker) park() bool {
	rt := w.rt
	rt.sleepers.Add(1)
	if testAfterAnnounce != nil {
		testAfterAnnounce(w)
	}
	if !rt.starved(w.ID) || rt.done.Load() || rt.stop.Stopped() {
		rt.unannounce()
		return false
	}
	w.Stats.Parks++
	if w.parkTimer == nil {
		w.parkTimer = time.NewTimer(parkMax)
	} else {
		w.parkTimer.Reset(parkMax)
	}
	select {
	case <-rt.wake:
		// The waker already took this thief out of sleepers. Leave the timer
		// stopped and drained for the next Reset; a tick that slips past the
		// drain only ends the next park early.
		if !w.parkTimer.Stop() {
			select {
			case <-w.parkTimer.C:
			default:
			}
		}
	case <-w.parkTimer.C:
		rt.unannounce()
	}
	return true
}

// starved reports whether every deque but self's is empty and has need_task
// raised: nothing to steal, and nobody left to ask.
func (rt *Runtime) starved(self int) bool {
	for i, d := range rt.Deques[:rt.N] {
		if i != self && (d.Size() != 0 || !d.NeedTask()) {
			return false
		}
	}
	return true
}

// claimSleeper takes one announced sleeper out of the count, if there is one.
func (rt *Runtime) claimSleeper() bool {
	for {
		n := rt.sleepers.Load()
		if n == 0 {
			return false
		}
		if rt.sleepers.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// unannounce takes the calling thief out of the sleepers it announced itself
// in. A waker may have claimed it first; its token is then in the channel,
// or about to be, and is consumed here so that tokens and announcements stay
// paired and none is left over to cut a later park short.
func (rt *Runtime) unannounce() {
	for !rt.claimSleeper() {
		select {
		case <-rt.wake:
			return
		default:
		}
	}
}

// wakeSleeper is Push's slow path: claim one announced sleeper and send its
// token. The claim takes the sleeper out of the count, so the pusher pays for
// at most one wake-up per parked thief.
func (w *Worker) wakeSleeper() {
	if w.rt.claimSleeper() {
		w.Stats.Wakes++
		w.rt.wake <- struct{}{}
	}
}

// wakeAll releases every announced sleeper: the job completed, failed or was
// claimed by a first solution. Callers store done (or fire the stop flag)
// first, so a thief that announces itself after the swap sees that in its
// re-check and does not park.
func (rt *Runtime) wakeAll() {
	for n := rt.sleepers.Swap(0); n > 0; n-- {
		rt.wake <- struct{}{}
	}
}
