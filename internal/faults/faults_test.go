package faults

import (
	"strings"
	"testing"
)

// Two injectors derived from the same plan, role and slot must make
// identical decision sequences — that is the replay contract.
func TestStreamDeterminism(t *testing.T) {
	p := New(Spec{Seed: 42, Stall: 0.3, Panic: 0.1, Overflow: 0.05, DepositDelay: 0.2})
	a := p.Worker(3)
	b := p.Worker(3)
	if a == nil || b == nil {
		t.Fatal("worker injector unexpectedly nil")
	}
	for i := 0; i < 10_000; i++ {
		if av, bv := a.StallNS(), b.StallNS(); av != bv {
			t.Fatalf("step %d: StallNS diverged: %d vs %d", i, av, bv)
		}
		if av, bv := a.PanicNow(), b.PanicNow(); av != bv {
			t.Fatalf("step %d: PanicNow diverged: %v vs %v", i, av, bv)
		}
		if av, bv := a.ForceOverflow(), b.ForceOverflow(); av != bv {
			t.Fatalf("step %d: ForceOverflow diverged: %v vs %v", i, av, bv)
		}
		if av, bv := a.DepositDelayNS(), b.DepositDelayNS(); av != bv {
			t.Fatalf("step %d: DepositDelayNS diverged: %d vs %d", i, av, bv)
		}
	}
}

// Distinct slots and distinct roles must not produce the same stream.
func TestStreamsIndependent(t *testing.T) {
	p := New(Spec{Seed: 7, Stall: 0.5, StealFail: 0.5})
	w0, w1 := p.Worker(0), p.Worker(1)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if (w0.StallNS() > 0) == (w1.StallNS() > 0) {
			same++
		}
	}
	if same == n {
		t.Fatalf("worker streams 0 and 1 fully correlated over %d draws", n)
	}
	// Worker vs deque role on the same slot.
	d0 := p.DequeHook(0)
	w0b := p.Worker(0)
	same = 0
	for i := 0; i < n; i++ {
		if d0() == (w0b.StallNS() > 0) {
			same++
		}
	}
	if same == n {
		t.Fatalf("deque and worker streams for slot 0 fully correlated over %d draws", n)
	}
}

// Rates at the extremes must be exact, not probabilistic.
func TestRateExtremes(t *testing.T) {
	always := New(Spec{Seed: 3, Panic: 1}).Worker(0)
	for i := 0; i < 100; i++ {
		if !always.PanicNow() {
			t.Fatalf("draw %d: rate 1.0 did not fire", i)
		}
	}
	if in := New(Spec{Seed: 3, Panic: 1}).Worker(1); in == nil {
		t.Fatal("panic-only plan returned nil worker injector")
	}
	// Zero-rate faults never fire even on an enabled plan.
	off := New(Spec{Seed: 3, Panic: 1}).Worker(0)
	for i := 0; i < 100; i++ {
		if off.ForceOverflow() || off.StallNS() != 0 || off.DepositDelayNS() != 0 {
			t.Fatalf("draw %d: zero-rate fault fired", i)
		}
	}
}

func TestBurstSemantics(t *testing.T) {
	in := New(Spec{Seed: 11, StealFail: 0.05, StealFailBurst: 5}).injector(roleDeque, 0)
	// Find the first firing, then expect exactly burst-1 forced follow-ups
	// (the follow-ups consume no randomness, so they are unconditional).
	for i := 0; i < 10_000; i++ {
		if in.FailSteal() {
			for j := 1; j < 5; j++ {
				if !in.FailSteal() {
					t.Fatalf("burst broke at follow-up %d", j)
				}
			}
			if in.burstLeft != 0 {
				t.Fatalf("burst not exhausted: %d left", in.burstLeft)
			}
			return
		}
	}
	t.Fatal("steal-fail rate 0.05 never fired in 10k draws")
}

// A nil plan and a zero spec must hand out nil hooks so the runtime's
// nil-check fast path stays on.
func TestOffMeansNil(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Worker(0) != nil || nilPlan.DequeHook(0) != nil {
		t.Fatal("nil plan handed out a non-nil hook")
	}
	if nilPlan.Enabled() {
		t.Fatal("nil plan reports enabled")
	}
	zero := New(Spec{Seed: 9})
	if zero.Enabled() {
		t.Fatal("zero spec reports enabled")
	}
	if zero.Worker(0) != nil || zero.DequeHook(0) != nil {
		t.Fatal("zero spec handed out a non-nil hook")
	}
	// A steal-only plan must not allocate worker injectors, and vice versa.
	stealOnly := New(Spec{Seed: 9, StealFail: 0.5})
	if stealOnly.Worker(0) != nil {
		t.Fatal("steal-only plan handed out a worker injector")
	}
	if stealOnly.DequeHook(0) == nil {
		t.Fatal("steal-only plan lost its deque hook")
	}
	panicOnly := New(Spec{Seed: 9, Panic: 0.5})
	if panicOnly.DequeHook(0) != nil {
		t.Fatal("panic-only plan handed out a deque hook")
	}
}

func TestDefaults(t *testing.T) {
	p := New(Spec{Stall: 0.1, DepositDelay: 0.1})
	s := p.Spec()
	if s.Seed != 1 {
		t.Fatalf("zero seed not defaulted: %d", s.Seed)
	}
	if s.StallNS <= 0 || s.DepositDelayNS <= 0 {
		t.Fatalf("durations not defaulted: stall=%d deposit=%d", s.StallNS, s.DepositDelayNS)
	}
	if s.StealFailBurst != 1 {
		t.Fatalf("burst not defaulted: %d", s.StealFailBurst)
	}
}

func TestScenarios(t *testing.T) {
	names := Scenarios()
	if len(names) == 0 {
		t.Fatal("no scenarios")
	}
	for _, n := range names {
		s, err := Scenario(n, 99)
		if err != nil {
			t.Fatalf("Scenario(%q): %v", n, err)
		}
		if s.Seed != 99 {
			t.Fatalf("Scenario(%q) dropped the seed", n)
		}
		if !s.enabled() {
			t.Fatalf("scenario %q injects nothing", n)
		}
	}
	if _, err := Scenario("no-such", 1); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("bad scenario name not rejected: %v", err)
	}
}

// Link and partition streams follow the same replay and nil-when-off
// contracts as the process-side streams.
func TestNetStreams(t *testing.T) {
	p := New(Spec{Seed: 21, NetDrop: 0.2, NetDelay: 0.3, NetDup: 0.1, Partition: 0.4})
	a, b := p.Link(5), p.Link(5)
	if a == nil || b == nil {
		t.Fatal("net plan returned nil link injector")
	}
	for i := 0; i < 10_000; i++ {
		if av, bv := a.DropMessage(), b.DropMessage(); av != bv {
			t.Fatalf("step %d: DropMessage diverged: %v vs %v", i, av, bv)
		}
		if av, bv := a.ExtraDelayNS(), b.ExtraDelayNS(); av != bv {
			t.Fatalf("step %d: ExtraDelayNS diverged: %d vs %d", i, av, bv)
		}
		if av, bv := a.DuplicateMessage(), b.DuplicateMessage(); av != bv {
			t.Fatalf("step %d: DuplicateMessage diverged: %v vs %v", i, av, bv)
		}
	}
	pa, pb := p.Partitioner(2), p.Partitioner(2)
	for i := 0; i < 1000; i++ {
		if av, bv := pa.PartitionNS(), pb.PartitionNS(); av != bv {
			t.Fatalf("step %d: PartitionNS diverged: %d vs %d", i, av, bv)
		}
	}
	// Opposite directions of the same node pair are independent streams.
	const nodes = 3
	ab, ba := p.Link(0*nodes+1), p.Link(1*nodes+0)
	same, n := 0, 1000
	for i := 0; i < n; i++ {
		if ab.DropMessage() == ba.DropMessage() {
			same++
		}
	}
	if same == n {
		t.Fatalf("A→B and B→A link streams fully correlated over %d draws", n)
	}
	// Net-only faults must not wake the process-side hooks, and vice versa.
	netOnly := New(Spec{Seed: 21, NetDrop: 0.5})
	if netOnly.Worker(0) != nil || netOnly.DequeHook(0) != nil {
		t.Fatal("net-only plan handed out a process-side hook")
	}
	if !netOnly.Enabled() || !netOnly.Spec().NetEnabled() || netOnly.Spec().ProcessEnabled() {
		t.Fatal("net-only plan misclassified")
	}
	procOnly := New(Spec{Seed: 21, Panic: 0.5})
	if procOnly.Link(0) != nil || procOnly.Partitioner(0) != nil {
		t.Fatal("process-only plan handed out a net hook")
	}
	var nilPlan *Plan
	if nilPlan.Link(0) != nil || nilPlan.Partitioner(0) != nil {
		t.Fatal("nil plan handed out a net hook")
	}
}

// The scenario catalogue must partition cleanly between the process and
// cluster campaigns, with the expected net presets present.
func TestScenarioSplit(t *testing.T) {
	net, proc := NetScenarios(), ProcessScenarios()
	if len(net) == 0 || len(proc) == 0 {
		t.Fatalf("empty split: net=%v proc=%v", net, proc)
	}
	inNet := make(map[string]bool, len(net))
	for _, n := range net {
		inNet[n] = true
	}
	for _, want := range []string{"net-drop", "net-delay", "net-dup", "partition", "net-mixed"} {
		if !inNet[want] {
			t.Fatalf("net scenario %q missing from NetScenarios(): %v", want, net)
		}
	}
	for _, n := range proc {
		s, err := Scenario(n, 1)
		if err != nil || !s.ProcessEnabled() {
			t.Fatalf("process scenario %q: err=%v processEnabled=%v", n, err, s.ProcessEnabled())
		}
	}
	if len(net)+len(proc) < len(Scenarios()) {
		t.Fatalf("split lost scenarios: %d net + %d proc < %d total", len(net), len(proc), len(Scenarios()))
	}
	s, err := Scenario("partition", 7)
	if err != nil || s.PartitionNS == 0 {
		t.Fatalf("partition scenario: err=%v spec=%+v", err, s)
	}
	if d := New(s).Spec().NetDelayNS; d != 300_000 {
		t.Fatalf("NetDelayNS default not applied: %d", d)
	}
}

// An empirical sanity check that thresholds land near their rates.
func TestRateCalibration(t *testing.T) {
	in := New(Spec{Seed: 5, Panic: 0.25}).Worker(0)
	hits := 0
	const n = 200_000
	for i := 0; i < n; i++ {
		if in.PanicNow() {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.24 || got > 0.26 {
		t.Fatalf("rate 0.25 measured at %.4f over %d draws", got, n)
	}
}
