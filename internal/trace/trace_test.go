package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"adaptivetc/internal/deque"
)

func TestSeqPacking(t *testing.T) {
	r := NewRecorder()
	r.Init(3, 20)
	defer r.Release()
	s0 := r.WorkerLog(0).NextSeq()
	s2a := r.WorkerLog(2).NextSeq()
	s2b := r.WorkerLog(2).NextSeq()
	if SeqWorker(s0) != 0 || SeqIndex(s0) != 1 {
		t.Fatalf("seq %x decodes to worker %d index %d, want 0/1", s0, SeqWorker(s0), SeqIndex(s0))
	}
	if SeqWorker(s2b) != 2 || SeqIndex(s2b) != 2 {
		t.Fatalf("seq %x decodes to worker %d index %d, want 2/2", s2b, SeqWorker(s2b), SeqIndex(s2b))
	}
	if s2a == s2b || s0 == s2a {
		t.Fatal("seqs not unique")
	}
	if got := FormatSeq(s2a); got != "w2#1" {
		t.Fatalf("FormatSeq = %q, want w2#1", got)
	}
	if got := FormatSeq(0); got != "root" {
		t.Fatalf("FormatSeq(0) = %q, want root", got)
	}
}

// cleanRun builds a minimal consistent 2-worker trace: worker 0 spawns and
// pushes one task, worker 1 steals and suspends it, worker 0's deposit
// finalises it and cascades the total into the root. One failed steal on
// deque 1 exercises the FSM log. Returns the recorder and the task seq.
func cleanRun(maxStolenNum int64) (*Recorder, uint64) {
	r := NewRecorder()
	r.Init(2, maxStolenNum)
	w0, w1 := r.WorkerLog(0), r.WorkerLog(1)
	t1 := w0.NextSeq()

	w0.Add(10, OpSpawn, t1, 1, 0)
	w0.Add(20, OpPush, t1, 0, 0)
	r.DequeHook(0)(deque.TraceStealOK, 0, false) // w1's steal below, lock order
	w1.Add(25, OpSteal, t1, 0, int64(t1))
	w0.Add(30, OpPopEmpty, 0, 0, 0)
	w1.Add(35, OpSuspend, t1, 0, 0)
	w0.Add(40, OpStealFail, 0, 1, 0)
	r.DequeHook(1)(deque.TraceStealFail, 1, false)
	w0.Add(50, OpDeposit, t1, 3, 0)
	w0.Add(51, OpFinalize, t1, 10, 0)
	w0.Add(52, OpDeposit, 0, 10, 0)
	w0.Add(53, OpComplete, 0, 10, 0)
	return r, t1
}

func TestCheckCleanRun(t *testing.T) {
	r, _ := cleanRun(2)
	defer r.Release()
	if err := r.Check(10, 10); err != nil {
		t.Fatalf("clean run violates invariants: %v", err)
	}
}

// TestCheckCatchesViolations seeds one defect per invariant into the clean
// run and asserts the checker names the broken law.
func TestCheckCatchesViolations(t *testing.T) {
	cases := []struct {
		name  string
		seed  func(r *Recorder, t1 uint64)
		final int64 // value passed as the run result; 10 is correct
		want  string
		text  string // the whole report after its header line, byte for byte
	}{
		{
			name:  "wrong final value",
			seed:  func(*Recorder, uint64) {},
			final: 11,
			want:  "single-completion",
			text:  "single-completion: run value 11 != serial value 10\nsingle-completion: completion event carries 10, run reported 11",
		},
		{
			name: "double spawn",
			seed: func(r *Recorder, t1 uint64) {
				r.WorkerLog(1).Add(60, OpSpawn, t1, 1, 0)
			},
			final: 10,
			want:  "spawn-unique",
			text:  "spawn-unique: task w0#1 spawned 2 times, want 1",
		},
		{
			name: "push never consumed",
			seed: func(r *Recorder, t1 uint64) {
				r.WorkerLog(0).Add(60, OpPush, t1, 0, 0)
			},
			final: 10,
			want:  "conservation",
			text:  "conservation: task w0#1 pushed 2 times, consumed 1 times (0 pops + 1 steals)",
		},
		{
			name: "special marker stolen",
			seed: func(r *Recorder, _ uint64) {
				w0, w1 := r.WorkerLog(0), r.WorkerLog(1)
				s := w0.NextSeq()
				w0.Add(60, OpSpawn, s, 2, KindSpecial)
				w0.Add(61, OpPush, s, 0, 0)
				w1.Add(62, OpSteal, s, 0, int64(s))
				r.DequeHook(0)(deque.TraceStealOK, 0, false)
				// Balance the deposit the steal registered so only the
				// special-pinned law trips.
				w1.Add(63, OpDeposit, s, 0, 0)
				w0.Add(64, OpPopSpecial, s, 1, 0)
			},
			final: 10,
			want:  "special-pinned",
			text:  "special-pinned: special marker w0#2 was stolen 1 times",
		},
		{
			name: "deposit nobody owed",
			seed: func(r *Recorder, t1 uint64) {
				r.WorkerLog(1).Add(60, OpDeposit, t1, 4, 0)
			},
			final: 10,
			want:  "deposit-owed",
			text:  "deposit-owed: task w0#1 received 2 deposits but was owed 1 (1 steal credits + 0 expects - 0 cancels)",
		},
		{
			name: "finalize without suspend",
			seed: func(r *Recorder, t1 uint64) {
				r.WorkerLog(0).Add(60, OpFinalize, t1, 10, 0)
			},
			final: 10,
			want:  "suspend-once",
			text:  "suspend-once: task w0#1 finalised 2 times but suspended 1 times",
		},
		{
			name: "deque counter diverges from replay",
			seed: func(r *Recorder, _ uint64) {
				r.WorkerLog(0).Add(60, OpStealFail, 0, 1, 0)
				r.DequeHook(1)(deque.TraceStealFail, 7, false) // replay expects 2
			},
			final: 10,
			want:  "need-task-fsm",
			text:  "need-task-fsm: deque 1 event 1 (steal-fail): counter/flag = 7/false, lock-order replay expects 2/false (max_stolen_num=2)",
		},
		{
			name: "need_task raised late",
			seed: func(r *Recorder, _ uint64) {
				w0 := r.WorkerLog(0)
				hook := r.DequeHook(1)
				// maxStolenNum is 2: the third consecutive failure must
				// raise the flag; recording it still false is the bug the
				// paper's Figure 3(d) forbids.
				w0.Add(60, OpStealFail, 0, 1, 0)
				hook(deque.TraceStealFail, 2, false)
				w0.Add(61, OpStealFail, 0, 1, 0)
				hook(deque.TraceStealFail, 3, false)
			},
			final: 10,
			want:  "need-task-fsm",
			text:  "need-task-fsm: deque 1 event 2 (steal-fail): counter/flag = 3/false, lock-order replay expects 3/true (max_stolen_num=2)",
		},
		{
			name: "worker steal without deque record",
			seed: func(r *Recorder, t1 uint64) {
				r.WorkerLog(1).Add(60, OpStealFail, 0, 0, 0)
			},
			final: 10,
			want:  "steal-symmetry",
			text:  "steal-symmetry: workers recorded 2 failed steals, deques recorded 1",
		},
		{
			name: "double completion",
			seed: func(r *Recorder, _ uint64) {
				r.WorkerLog(1).Add(60, OpComplete, 0, 10, 0)
			},
			final: 10,
			want:  "single-completion",
			text:  "single-completion: 2 root completions recorded, want at most 1",
		},
		{
			name: "special marker popped, unmatched, suspended",
			seed: func(r *Recorder, _ uint64) {
				w0 := r.WorkerLog(0)
				s := w0.NextSeq()
				w0.Add(60, OpSpawn, s, 2, KindSpecial)
				w0.Add(61, OpPush, s, 0, 0)
				w0.Add(62, OpPop, s, 0, 0)
				w0.Add(63, OpSuspend, s, 0, 0)
			},
			final: 10,
			want:  "special-pinned",
			text: "special-pinned: special marker w0#2 left through the ordinary pop 1 times\n" +
				"special-pinned: special marker w0#2 pushed 1 times but removed by PopSpecial 0 times\n" +
				"suspend-once: special marker w0#2 suspends=1 finalizes=0, want 0/0",
		},
		{
			name: "ordinary task through PopSpecial, suspended twice",
			seed: func(r *Recorder, t1 uint64) {
				r.WorkerLog(0).Add(60, OpPopSpecial, t1, 0, 0)
				r.WorkerLog(1).Add(61, OpSuspend, t1, 0, 0)
			},
			final: 10,
			want:  "suspend-once",
			text: "special-pinned: ordinary task w0#1 removed via PopSpecial 1 times\n" +
				"suspend-once: task w0#1 suspended 2 times, want at most 1",
		},
		{
			// No worker of the run allocated w5#9; the checker keeps such a
			// seq apart from the dense ones and must report it the same way.
			name: "event names a seq nobody allocated",
			seed: func(r *Recorder, _ uint64) {
				r.WorkerLog(1).Add(60, OpPush, 6<<seqWorkerShift|9, 0, 0)
			},
			final: 10,
			want:  "spawn-unique",
			text:  "spawn-unique: task w5#9 spawned 0 times, want 1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, t1 := cleanRun(2)
			defer r.Release()
			c.seed(r, t1)
			err := r.Check(c.final, 10)
			if err == nil {
				t.Fatalf("checker accepted a run violating %s", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("violation report does not name %s:\n%v", c.want, err)
			}
			header := fmt.Sprintf("trace: %d invariant violation(s):\n", 1+strings.Count(c.text, "\n"))
			if err.Error() != header+c.text {
				t.Fatalf("report text moved:\n got %q\nwant %q", err.Error(), header+c.text)
			}
		})
	}
}

// duplicateSteal seeds a duplicated consumption into the clean run: t1's
// single push is stolen a second time (deque log and worker log agree, so
// steal-symmetry and the FSM replay stay exact), and the duplicated steal's
// credit is paid by a second deposit, with the second executor suspending
// again before it.
func duplicateSteal(r *Recorder, t1 uint64) {
	w1 := r.WorkerLog(1)
	r.DequeHook(0)(deque.TraceStealOK, 0, false)
	w1.Add(70, OpSteal, t1, 0, int64(t1))
	w1.Add(71, OpSuspend, t1, 0, 0)
	w1.Add(72, OpDeposit, t1, 3, 0)
}

// TestCheckLaws runs one trace shape per row against a choice of Laws.
// want names the law the verdict must cite; empty means the run passes.
func TestCheckLaws(t *testing.T) {
	clean := func(*Recorder, uint64) {}
	lostPush := func(r *Recorder, t1 uint64) {
		r.WorkerLog(0).Add(80, OpPush, t1, 0, 0)
	}
	strict := Laws{Final: 10, Want: 10}
	cases := []struct {
		name string
		seed func(*Recorder, uint64)
		laws Laws
		want string
	}{
		{"clean run, strict", clean, strict, ""},
		// An entry handed out twice breaks conservation on every run,
		// whichever deque variant produced it...
		{"twice consumed, strict", duplicateSteal, strict, "conservation"},
		// ...truncated runs included: truncation drops floors, not ceilings.
		{"twice consumed, truncated strict", duplicateSteal, Laws{Truncated: true}, "conservation"},
		// An abandoned push is fine for an aborted run and lost work for a
		// run that claims to have finished.
		{"abandoned push, truncated strict", lostPush, Laws{Truncated: true}, ""},
		{"abandoned push, finished", lostPush, strict, "conservation"},
		// A truncated run reports no value: Final and Want are not compared.
		{"truncated ignores the value", clean, Laws{Final: 1, Want: 2, Truncated: true}, ""},
		{"finished compares the value", clean, Laws{Final: 10, Want: 11}, "single-completion"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, t1 := cleanRun(2)
			defer r.Release()
			c.seed(r, t1)
			err := r.CheckLaws(c.laws)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("%+v rejected the run: %v", c.laws, err)
			case c.want != "" && err == nil:
				t.Fatalf("%+v accepted a run violating %s", c.laws, c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("verdict does not name %s:\n%v", c.want, err)
			}
		})
	}
}

// TestCheckLawsHardLaws pins what truncation never forgives: consumption
// without a push, deposits nobody owed, and a worker/deque steal count
// mismatch.
func TestCheckLawsHardLaws(t *testing.T) {
	truncated := Laws{Truncated: true}
	t.Run("steal without push", func(t *testing.T) {
		r, _ := cleanRun(2)
		defer r.Release()
		w0, w1 := r.WorkerLog(0), r.WorkerLog(1)
		s := w0.NextSeq()
		w0.Add(60, OpSpawn, s, 1, 0)
		r.DequeHook(0)(deque.TraceStealOK, 0, false)
		w1.Add(61, OpSteal, s, 0, int64(s))
		w1.Add(62, OpDeposit, s, 0, 0) // balance the credit: only conservation trips
		err := r.CheckLaws(truncated)
		if err == nil || !strings.Contains(err.Error(), "conservation") {
			t.Fatalf("truncation forgave consumption without a push: %v", err)
		}
	})
	t.Run("deposit nobody owed", func(t *testing.T) {
		// A task with zero credits and zero expects (owed = 0) may
		// receive no deposit, even on an aborted run.
		r, _ := cleanRun(2)
		defer r.Release()
		w0 := r.WorkerLog(0)
		s := w0.NextSeq()
		w0.Add(60, OpSpawn, s, 1, 0)
		w0.Add(61, OpPush, s, 0, 0)
		w0.Add(62, OpPop, s, 0, 0)
		r.WorkerLog(1).Add(63, OpDeposit, s, 4, 0)
		err := r.CheckLaws(truncated)
		if err == nil || !strings.Contains(err.Error(), "deposit-owed") {
			t.Fatalf("truncation forgave an unowed deposit: %v", err)
		}
	})
	t.Run("steal-symmetry", func(t *testing.T) {
		r, _ := cleanRun(2)
		defer r.Release()
		r.WorkerLog(1).Add(60, OpStealFail, 0, 0, 0)
		err := r.CheckLaws(truncated)
		if err == nil || !strings.Contains(err.Error(), "steal-symmetry") {
			t.Fatalf("truncation forgave a steal-symmetry break: %v", err)
		}
	})
}

// chromeDoc mirrors the trace_event JSON object format.
type chromeDoc struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Tid  int             `json:"tid"`
		TS   float64         `json:"ts"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeValidJSON(t *testing.T) {
	r, _ := cleanRun(2)
	defer r.Release()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 thread_name metadata events + the recorded worker events.
	want := 2 + r.EventCount()
	if len(doc.TraceEvents) != want {
		t.Fatalf("%d traceEvents, want %d", len(doc.TraceEvents), want)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["M"] != 2 || phases["i"] != r.EventCount() {
		t.Fatalf("phase mix %v, want 2 M + %d i", phases, r.EventCount())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
}

func TestRecorderReuse(t *testing.T) {
	r, _ := cleanRun(2)
	if r.EventCount() == 0 {
		t.Fatal("no events recorded")
	}
	// A new Init discards the previous run entirely.
	r.Init(1, 20)
	if r.EventCount() != 0 {
		t.Fatalf("EventCount = %d after re-Init, want 0", r.EventCount())
	}
	if r.Workers() != 1 {
		t.Fatalf("Workers = %d after re-Init, want 1", r.Workers())
	}
	if err := r.Check(0, 1); err == nil {
		t.Fatal("empty run with a wrong value passed the checker")
	}
	r.Release()
	if r.Workers() != 0 {
		t.Fatalf("Workers = %d after Release, want 0", r.Workers())
	}
}

// bulkRun records a clean run of n tasks on two workers — each spawned,
// pushed and popped by its owner — and returns the recorder.
func bulkRun(n int) *Recorder {
	r := NewRecorder()
	r.Init(2, 20)
	for i := 0; i < n; i++ {
		w := r.WorkerLog(i % 2)
		s := w.NextSeq()
		w.Add(int64(i), OpSpawn, s, 1, 0)
		w.Add(int64(i), OpPush, s, 0, 0)
		w.Add(int64(i), OpPop, s, 0, 0)
	}
	r.WorkerLog(0).Add(int64(n), OpDeposit, 0, 10, 0)
	r.WorkerLog(0).Add(int64(n), OpComplete, 0, 10, 0)
	return r
}

// TestCheckLawsAllocsFlat pins the audit's allocation budget: a handful per
// CheckLaws (the verdict closure; under -race the pool drops the scratch now
// and then), never one per task.
func TestCheckLawsAllocsFlat(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		r := bulkRun(n)
		check := func() {
			if err := r.Check(10, 10); err != nil {
				t.Fatalf("clean %d-task run: %v", n, err)
			}
		}
		check() // size the pooled scratch
		if got := testing.AllocsPerRun(20, check); got > 8 {
			t.Errorf("%d tasks: %v allocs per CheckLaws, want a constant handful", n, got)
		}
		r.Release()
	}
}

// TestCheckIgnoresUnusedSeq: a seq that was allocated but appears in no
// event has a slot in the dense table and breaks no law.
func TestCheckIgnoresUnusedSeq(t *testing.T) {
	r, _ := cleanRun(2)
	defer r.Release()
	r.WorkerLog(1).NextSeq()
	if err := r.Check(10, 10); err != nil {
		t.Fatalf("an unused seq was reported: %v", err)
	}
}

func BenchmarkCheckLaws(b *testing.B) {
	r := bulkRun(10000)
	defer r.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Check(10, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.EventCount()), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.EventCount()), "ns/event")
}
