// Package faults is the deterministic fault-injection plane of the
// work-stealing runtime: a seed-replayable source of adversarial scheduling
// decisions — forced steal failures, worker stalls, delayed deposits,
// injected deque overflows and injected program panics — threaded through
// the deque, the node walker every engine shares (sched.Walker), the wsrt
// runtime and the pool's jobs.
//
// The plane follows the trace layer's contract: it is free when it is off.
// Every injection site in the hot path is a single nil check (a worker's
// sched.Walker holds a nil *Injector unless a Plan was attached to the run or
// job), so the zero-allocation deque/frame paths are untouched when no
// faults are configured.
//
// Determinism is the whole point: a Plan is an immutable Spec plus a seed,
// and every consumer derives its own private decision stream from
// (seed, role, slot) with a splitmix64 generator (Stream, which the thief
// loop's victim picks and the cluster Sim's link jitter draw from too, under
// roles of their own). Under the vtime Sim
// platform the entire run — scheduling, costs, and now faults — is a pure
// function of the seeds, so any chaos failure replays byte-identically from
// its printed tuple. Under the Real platform the per-stream decisions are
// still seed-reproducible even though goroutine interleaving is not, which
// keeps soak campaigns statistically repeatable.
//
// Streams never share state: worker i's node-level faults and deque i's
// steal-failure hook (called under the deque's owner lock) are independent
// generators, so concurrent jobs on a sharded pool need no synchronisation
// to draw faults.
package faults

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Spec configures a fault plan. All rates are probabilities in [0, 1] per
// decision point; zero disables that fault. The zero Spec injects nothing.
type Spec struct {
	// Seed fixes every decision stream. Zero means 1.
	Seed int64

	// StealFail is the per-steal-attempt probability that the attempt is
	// forced to fail at the deque (a contention burst: the thief loses the
	// race without touching the entries). The failure is real as far as the
	// starvation machinery is concerned — stolen_num increments and
	// need_task may be raised — so the paper's signalling FSM runs under
	// adversarial steal timing.
	StealFail float64
	// StealFailBurst is the number of consecutive forced failures once
	// StealFail fires (default 1). Bursts model a thief pack hammering one
	// victim.
	StealFailBurst int

	// Stall is the per-node probability that a worker stalls at node entry
	// (Walker.Visit) for StallNS nanoseconds (virtual under Sim, wall-clock
	// under Real).
	Stall float64
	// StallNS is the stall duration. Default 20µs.
	StallNS int64

	// DepositDelay is the per-deposit probability that a worker sleeps
	// DepositDelayNS before delivering a value to a parent frame —
	// perturbing exactly the join/deposit races that low-synchronisation
	// runtimes are most sensitive to.
	DepositDelay float64
	// DepositDelayNS is the deposit delay duration. Default 5µs.
	DepositDelayNS int64

	// Panic is the per-node probability that a worker panics at node entry
	// (Walker.Visit), simulating a buggy program mid-job. The panic is not a
	// sched.Abort: it exercises the runtime's quarantine path, not
	// cancellation.
	Panic float64

	// Overflow is the per-push probability that the push is failed as if
	// the deque were full, aborting the job with sched.ErrDequeOverflow
	// regardless of the deque's real capacity or growability.
	Overflow float64

	// Network fault roles, consumed by the cluster tier (internal/cluster):
	// the Sim transport draws one decision per message from a per-link
	// stream, so a whole N-node cluster soak replays byte-identically from
	// its seed. The single-process fault roles above never consult these.

	// NetDrop is the per-message probability that a cluster message
	// (gossip, forward, steal, ack) is lost in flight.
	NetDrop float64
	// NetDelay is the per-message probability of an extra latency spike of
	// NetDelayNS on top of the link's base cost.
	NetDelay float64
	// NetDelayNS is the injected latency spike. Default 300µs.
	NetDelayNS int64
	// NetDup is the per-message probability that the message is delivered
	// twice — the at-least-once hazard the forwarding layer's dedupe must
	// absorb.
	NetDup float64
	// Partition is the per-probe (gossip-tick) probability that a node
	// drops off the network — every message to or from it is lost — for
	// PartitionNS.
	Partition float64
	// PartitionNS is how long an injected partition isolates the node.
	// Default 5ms of virtual time.
	PartitionNS int64
}

// enabled reports whether any fault has a non-zero rate.
func (s Spec) enabled() bool {
	return s.StealFail > 0 || s.Stall > 0 || s.DepositDelay > 0 ||
		s.Panic > 0 || s.Overflow > 0 || s.netEnabled()
}

// netEnabled reports whether any network fault has a non-zero rate.
func (s Spec) netEnabled() bool {
	return s.NetDrop > 0 || s.NetDelay > 0 || s.NetDup > 0 || s.Partition > 0
}

// NetEnabled reports whether the spec injects any network fault — the
// chaos harness routes such scenarios to its cluster campaigns.
func (s Spec) NetEnabled() bool { return s.netEnabled() }

// ProcessEnabled reports whether the spec injects any single-process fault
// (everything but the network roles) — the sim and pool chaos campaigns
// skip scenarios that are network-only.
func (s Spec) ProcessEnabled() bool {
	return s.StealFail > 0 || s.Stall > 0 || s.DepositDelay > 0 ||
		s.Panic > 0 || s.Overflow > 0
}

// Plan is an immutable, sharable fault configuration. One Plan may serve
// any number of runs and concurrent jobs; every consumer derives a private
// decision stream from it. Create with New; a nil *Plan means "no faults"
// everywhere it is accepted.
type Plan struct {
	spec Spec
}

// New returns a plan for spec, applying defaults for zero-valued durations
// and burst lengths.
func New(spec Spec) *Plan {
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.StealFailBurst <= 0 {
		spec.StealFailBurst = 1
	}
	if spec.StallNS <= 0 {
		spec.StallNS = 20_000
	}
	if spec.DepositDelayNS <= 0 {
		spec.DepositDelayNS = 5_000
	}
	if spec.NetDelayNS <= 0 {
		spec.NetDelayNS = 300_000
	}
	if spec.PartitionNS <= 0 {
		spec.PartitionNS = 5_000_000
	}
	return &Plan{spec: spec}
}

// Spec returns the plan's (defaulted) configuration.
func (p *Plan) Spec() Spec { return p.spec }

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool { return p != nil && p.spec.enabled() }

// Stream roles: each (role, slot) pair seeds an independent generator, so
// worker-side and deque-side streams of the same slot never correlate. The
// blank roles keep the later roles' values, and with them every recorded
// cluster fault stream.
const (
	roleWorker = 0x9E37_79B9 + iota
	roleDeque
	_
	_
	roleLink
	rolePartition
)

// Worker returns the fault stream for worker slot i of one run or job:
// node stalls, injected panics, deposit delays and forced overflows. The
// injector is owned by exactly one worker goroutine. Returns nil when none
// of the worker-side faults are configured, so the runtime's nil check
// keeps the hot path free.
func (p *Plan) Worker(i int) *Injector {
	if p == nil {
		return nil
	}
	s := p.spec
	if s.Stall <= 0 && s.Panic <= 0 && s.DepositDelay <= 0 && s.Overflow <= 0 {
		return nil
	}
	return p.injector(roleWorker, i)
}

// DequeHook returns the forced-steal-failure decision function to install
// on deque i with SetFailSteal, or nil when StealFail is zero. The hook's
// state is private to the deque and only ever touched under the deque's
// owner lock (the steal path), so concurrent thieves serialise on it
// exactly as they serialise on the deque itself.
func (p *Plan) DequeHook(i int) func() bool {
	if p == nil || p.spec.StealFail <= 0 {
		return nil
	}
	in := p.injector(roleDeque, i)
	return in.FailSteal
}

// Link returns the per-link message-fault stream for directed link slot i
// (the cluster tier keys it src*nodes+dst), or nil when no message fault
// (drop/delay/duplicate) is configured. Each directed link owns a private
// stream, so the fate of A→B traffic never correlates with B→A.
func (p *Plan) Link(i int) *Injector {
	if p == nil {
		return nil
	}
	s := p.spec
	if s.NetDrop <= 0 && s.NetDelay <= 0 && s.NetDup <= 0 {
		return nil
	}
	return p.injector(roleLink, i)
}

// Partitioner returns node i's partition stream — probed once per gossip
// tick by the Sim cluster — or nil when Partition is zero.
func (p *Plan) Partitioner(i int) *Injector {
	if p == nil || p.spec.Partition <= 0 {
		return nil
	}
	return p.injector(rolePartition, i)
}

func (p *Plan) injector(role, slot int) *Injector {
	s := p.spec
	return &Injector{
		rng:          NewStream(p.spec.Seed, role, slot),
		stealFail:    threshold(s.StealFail),
		stealBurst:   s.StealFailBurst,
		stall:        threshold(s.Stall),
		stallNS:      s.StallNS,
		depositDelay: threshold(s.DepositDelay),
		depositNS:    s.DepositDelayNS,
		panicTh:      threshold(s.Panic),
		overflow:     threshold(s.Overflow),
		netDrop:      threshold(s.NetDrop),
		netDelay:     threshold(s.NetDelay),
		netDelayNS:   s.NetDelayNS,
		netDup:       threshold(s.NetDup),
		partition:    threshold(s.Partition),
		partitionNS:  s.PartitionNS,
	}
}

// Stream is one splitmix64 generator: deterministic, full-period, one add
// and three shift-xor-multiply rounds per draw, no allocation. The owner of
// a stream draws from it without synchronisation.
type Stream struct{ state uint64 }

const golden64 = 0x9E3779B97F4A7C15

// NewStream seeds the (role, slot) stream of seed: seed ^ role<<32 ^
// (slot+1)·φ, then one scramble round so adjacent seeds and slots do not
// start correlated. Consumers keep their streams apart by role.
func NewStream(seed int64, role, slot int) Stream {
	return Stream{state: scramble(uint64(seed) ^ (uint64(role) << 32) ^ (uint64(slot+1) * golden64))}
}

func scramble(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next returns the stream's next 64 bits.
func (s *Stream) Next() uint64 {
	s.state += golden64
	return scramble(s.state)
}

// Intn returns an unbiased draw from [0, n) via Lemire's multiply-shift
// rejection method — no modulo, and the rejection loop runs ~never for
// small n.
func (s *Stream) Intn(n int) int {
	v := uint64(n)
	hi, lo := bits.Mul64(s.Next(), v)
	if lo < v {
		thresh := -v % v
		for lo < thresh {
			hi, lo = bits.Mul64(s.Next(), v)
		}
	}
	return int(hi)
}

// threshold converts a probability to a uint64 comparison bound.
func threshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return ^uint64(0)
	default:
		return uint64(rate * float64(1<<63) * 2)
	}
}

// Injector is one private fault decision stream. Each method is one
// splitmix64 step plus a compare — no allocation, no locking — and must
// only be called by the stream's owner (a worker goroutine, a deque under
// its owner lock, or a cluster Sim's link or node).
type Injector struct {
	rng Stream

	stealFail  uint64
	stealBurst int
	burstLeft  int

	stall   uint64
	stallNS int64

	depositDelay uint64
	depositNS    int64

	panicTh  uint64
	overflow uint64

	netDrop     uint64
	netDelay    uint64
	netDelayNS  int64
	netDup      uint64
	partition   uint64
	partitionNS int64
}

func (in *Injector) hit(th uint64) bool {
	if th == 0 {
		return false
	}
	return in.rng.Next() < th
}

// FailSteal decides whether the current steal attempt is forced to fail.
// Once the rate fires, the next StealFailBurst-1 attempts fail too.
func (in *Injector) FailSteal() bool {
	if in.burstLeft > 0 {
		in.burstLeft--
		return true
	}
	if in.hit(in.stealFail) {
		in.burstLeft = in.stealBurst - 1
		return true
	}
	return false
}

// StallNS returns the nanoseconds the worker should stall at this node
// (0: no stall).
func (in *Injector) StallNS() int64 {
	if in.hit(in.stall) {
		return in.stallNS
	}
	return 0
}

// DepositDelayNS returns the nanoseconds to sleep before the current
// deposit (0: no delay).
func (in *Injector) DepositDelayNS() int64 {
	if in.hit(in.depositDelay) {
		return in.depositNS
	}
	return 0
}

// PanicNow decides whether the worker panics at this node.
func (in *Injector) PanicNow() bool { return in.hit(in.panicTh) }

// ForceOverflow decides whether the current push is failed as a deque
// overflow.
func (in *Injector) ForceOverflow() bool { return in.hit(in.overflow) }

// DropMessage decides whether the current message is lost in flight.
func (in *Injector) DropMessage() bool { return in.hit(in.netDrop) }

// ExtraDelayNS returns the injected latency spike for the current message
// (0: delivered at the link's base cost).
func (in *Injector) ExtraDelayNS() int64 {
	if in.hit(in.netDelay) {
		return in.netDelayNS
	}
	return 0
}

// DuplicateMessage decides whether the current message is delivered twice.
func (in *Injector) DuplicateMessage() bool { return in.hit(in.netDup) }

// PartitionNS returns how long the node is isolated starting at this probe
// (0: stays connected). One probe per gossip tick keeps the decision count
// — and with it the replayed stream — independent of message volume.
func (in *Injector) PartitionNS() int64 {
	if in.hit(in.partition) {
		return in.partitionNS
	}
	return 0
}

// PanicValue is the value an injected program panic throws, so tests and
// the chaos harness can tell an injected panic from a real program bug.
type PanicValue struct {
	// Worker is the job-local id of the worker that panicked (on a pool,
	// its shard-local index).
	Worker int
}

func (p PanicValue) String() string {
	return fmt.Sprintf("faults: injected panic on worker %d", p.Worker)
}

// ---------------------------------------------------------------------------
// Scenario presets

// scenarios maps curated scenario names to their specs (seed applied by
// Scenario). Rates are sized so that small benchmark instances both
// complete cleanly sometimes and abort sometimes — a soak needs to see
// both outcomes.
var scenarios = map[string]Spec{
	"steal-burst":   {StealFail: 0.4, StealFailBurst: 8},
	"stall":         {Stall: 0.01, StallNS: 50_000},
	"panic":         {Panic: 0.002},
	"overflow":      {Overflow: 0.001},
	"deposit-delay": {DepositDelay: 0.25, DepositDelayNS: 20_000},
	"mixed": {
		StealFail: 0.2, StealFailBurst: 4,
		Stall: 0.005, StallNS: 20_000,
		DepositDelay: 0.1, DepositDelayNS: 10_000,
		Panic: 0.0005, Overflow: 0.0002,
	},
	// Network scenarios, consumed by the cluster campaigns. Rates are sized
	// so a small Sim cluster both loses enough messages to exercise the
	// retry/dedupe machinery and still converges quickly.
	"net-drop":  {NetDrop: 0.25},
	"net-delay": {NetDelay: 0.4, NetDelayNS: 400_000},
	"net-dup":   {NetDup: 0.3},
	"partition": {Partition: 0.15, PartitionNS: 4_000_000},
	"net-mixed": {
		NetDrop: 0.1, NetDelay: 0.2, NetDelayNS: 250_000,
		NetDup: 0.1, Partition: 0.05, PartitionNS: 2_500_000,
	},
}

// Scenarios lists the curated scenario names, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProcessScenarios lists the scenario names that inject single-process
// faults, sorted — the set the sim and pool chaos campaigns iterate.
func ProcessScenarios() []string {
	var names []string
	for n, s := range scenarios {
		if s.ProcessEnabled() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// NetScenarios lists the scenario names that inject network faults, sorted
// — the set the cluster chaos campaigns iterate.
func NetScenarios() []string {
	var names []string
	for n, s := range scenarios {
		if s.NetEnabled() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Scenario returns the named curated spec with the given seed.
func Scenario(name string, seed int64) (Spec, error) {
	s, ok := scenarios[strings.TrimSpace(name)]
	if !ok {
		return Spec{}, fmt.Errorf("faults: unknown scenario %q (have %s)", name, strings.Join(Scenarios(), ", "))
	}
	s.Seed = seed
	return s, nil
}

// ErrInjected tags error messages produced by the plane where an error (not
// a panic) is the natural surface; call sites wrap their own sentinel and
// include this one so chaos verdicts can separate injected failures from
// organic ones.
var ErrInjected = errors.New("injected by fault plane")
