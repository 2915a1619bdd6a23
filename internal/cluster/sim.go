// The deterministic cluster model: an N-node cluster as a single-goroutine
// discrete-event simulation with virtual network costs, mirroring how
// internal/vtime charges virtual CPU costs. Nothing here touches
// serve.Service or goroutines — determinism on a 1-core host needs one
// event loop and one totally ordered clock.
//
// The model keeps the real tier's semantics at the protocol level:
//
//   - Each node is a FIFO backlog plus one executor (the pool's staging
//     depth); a job's service time is precomputed by the caller (the
//     deterministic makespan of a Sim-platform engine run), so "executing"
//     is occupying the node for ServiceNS and yielding Value.
//   - Load exchange, forwarding and stealing are messages with a virtual
//     latency: base + seeded per-link jitter + any injected delay spike.
//     Per-link fault streams (drop/delay/duplicate) and per-node partition
//     streams come from the same internal/faults Plan the process-level
//     chaos campaigns use.
//   - Forwarding is at-least-once: the sender holds the job until the ack
//     arrives, requeues it locally on timeout, and the receiver dedupes on
//     the forward token. A lost ack can therefore execute a job twice —
//     counted as a duplicate, never as a lost job. Remote steal asks the
//     victim to forward to the thief, exactly like the real tier.
//
// Every decision draws from splitmix64 streams keyed (seed, role, slot),
// and events are ordered by (virtual time, sequence number), so the full
// event log — and with it the whole run — is a pure function of the
// config. Chaos replay compares logs with reflect.DeepEqual.
package cluster

import (
	"container/heap"
	"fmt"
	"sort"

	"adaptivetc/internal/faults"
)

// SimConfig configures one deterministic cluster run.
type SimConfig struct {
	// Nodes is the cluster size (≥ 1).
	Nodes int
	// Seed keys every stream (jitter and faults); zero means 1.
	Seed int64
	// BaseLatencyNS is the fixed one-way message cost. Zero means 200µs.
	BaseLatencyNS int64
	// JitterNS bounds the uniform per-message jitter added to the base
	// cost, drawn from the link's seeded stream. Zero means 50µs.
	JitterNS int64
	// GossipEveryNS is the virtual interval between decision ticks (load
	// exchange, rebalance, steal). Zero means 1ms.
	GossipEveryNS int64
	// AckTimeoutNS is how long a forwarder waits for the ack before
	// requeueing the job locally. Zero means 4× (base latency + jitter) +
	// gossip interval.
	AckTimeoutNS int64
	// Policy is the decision rule set, the same value a real Node runs.
	Policy
	// Faults, when non-nil, injects network faults: Link streams for
	// drop/delay/duplicate keyed src*Nodes+dst, Partitioner streams probed
	// once per node per gossip tick. Process-level roles are ignored here.
	Faults *faults.Plan
	// Partitions are explicit isolation windows (virtual time), on top of
	// any fault-injected ones — the partition-heal pin test scripts these.
	Partitions []PartitionWindow
}

// PartitionWindow isolates Node from the network in [StartNS, EndNS).
type PartitionWindow struct {
	Node    int
	StartNS int64
	EndNS   int64
}

// SimJob is one job offered to the cluster.
type SimJob struct {
	// ID must be unique across the run.
	ID int
	// Node is the arrival node.
	Node int
	// ArriveNS is the arrival time.
	ArriveNS int64
	// ServiceNS is the deterministic execution cost (a Sim-engine
	// makespan, precomputed by the caller).
	ServiceNS int64
	// Value is the job's result, checked against the oracle by callers.
	Value int64
}

// SimEvent is one entry of the deterministic event log.
type SimEvent struct {
	T    int64  // virtual time
	Kind string // arrive|start|complete|dup-complete|gossip|forward|deliver|drop|dup|ack|timeout|requeue|steal|partition|heal
	Node int    // acting node
	Job  int    // job id, -1 when not job-scoped
	Peer int    // peer node, -1 when not message-scoped
}

// SimNodeStats is one node's counters.
type SimNodeStats struct {
	Arrived      int   `json:"arrived"`
	Completed    int   `json:"completed"` // first completions recorded here
	Duplicates   int   `json:"duplicates"`
	ForwardedOut int   `json:"forwarded_out"`
	ForwardedIn  int   `json:"forwarded_in"`
	StealsServed int   `json:"steals_served"`
	Requeues     int   `json:"requeues"`
	BusyNS       int64 `json:"busy_ns"`
}

// SimReport is the outcome of one run.
type SimReport struct {
	// Events is the full deterministic log; replay compares it.
	Events []SimEvent
	// Completed is the number of distinct jobs that completed at least
	// once; Duplicates counts extra executions from lost acks.
	Completed  int
	Duplicates int
	// Values maps job id → the value of its first completion.
	Values map[int]int64
	// SojournNS maps job id → first-completion time minus arrival.
	SojournNS map[int]int64
	// MakespanNS is the virtual time of the last event.
	MakespanNS int64
	// PerNode are the per-node counters.
	PerNode []SimNodeStats
	// Drops/Delays/Dups count injected network faults that fired.
	Drops, Delays, Dups int
	// Violations lists invariant breaches (empty on a healthy run).
	Violations []string
}

// --- event plumbing ---

type evKind int

const (
	evArrive evKind = iota
	evComplete
	evTick
	evDeliver
	evAckTimeout
)

type simMsgKind int

const (
	mGossip simMsgKind = iota
	mForward
	mAck
	mSteal
)

type simMsg struct {
	kind     simMsgKind
	from, to int
	load     int     // mGossip
	job      *simJob // mForward
	token    string  // mForward/mAck
	max      int     // mSteal
	thief    int     // mSteal
}

type simEvent struct {
	t    int64
	seq  int64
	kind evKind
	node int     // evComplete/evAckTimeout owner
	job  *simJob // evArrive
	msg  *simMsg // evDeliver
	tok  string  // evAckTimeout
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// simJob is the in-flight mutable view of a SimJob.
type simJob struct {
	SimJob
	hops int
}

type pendingFwd struct {
	job  *simJob
	to   int
	done bool // acked or already requeued
}

type simNode struct {
	id        int
	queue     []*simJob
	running   *simJob
	known     []int // last gossiped peer load, -1 unknown
	partUntil int64
	pending   map[string]*pendingFwd
	seen      map[string]bool // inbound forward tokens (dedupe)
	stats     SimNodeStats
}

func (n *simNode) load() int {
	l := len(n.queue)
	if n.running != nil {
		l++
	}
	return l
}

// sim is one run's full state.
type sim struct {
	cfg    SimConfig
	nodes  []*simNode
	heap   eventHeap
	seq    int64
	now    int64
	report SimReport

	jitter []faults.Stream    // per directed link
	links  []*faults.Injector // per directed link, nil when no message faults
	parts  []*faults.Injector // per node, nil when no partition faults

	// Scratch for onTick, reused across ticks: one node's usable peers, and
	// every node's decision of the current tick.
	peers []PeerLoad
	acts  []Action

	total     int // jobs offered
	completed int // distinct first completions
	tokenSeq  int
}

// RunSim executes one deterministic cluster run.
func RunSim(cfg SimConfig, jobs []SimJob) (*SimReport, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: sim needs ≥ 1 node, got %d", cfg.Nodes)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.BaseLatencyNS <= 0 {
		cfg.BaseLatencyNS = 200_000
	}
	if cfg.JitterNS <= 0 {
		cfg.JitterNS = 50_000
	}
	if cfg.GossipEveryNS <= 0 {
		cfg.GossipEveryNS = 1_000_000
	}
	if cfg.AckTimeoutNS <= 0 {
		cfg.AckTimeoutNS = 4*(cfg.BaseLatencyNS+cfg.JitterNS) + cfg.GossipEveryNS
	}
	s := &sim{cfg: cfg, total: len(jobs)}
	s.report.Values = make(map[int]int64, len(jobs))
	s.report.SojournNS = make(map[int]int64, len(jobs))
	nn := cfg.Nodes
	s.nodes = make([]*simNode, nn)
	for i := range s.nodes {
		s.nodes[i] = &simNode{
			id:      i,
			known:   make([]int, nn),
			pending: make(map[string]*pendingFwd),
			seen:    make(map[string]bool),
		}
		for j := range s.nodes[i].known {
			s.nodes[i].known[j] = -1
		}
	}
	s.peers = make([]PeerLoad, 0, nn)
	s.acts = make([]Action, nn)
	s.jitter = make([]faults.Stream, nn*nn)
	s.links = make([]*faults.Injector, nn*nn)
	s.parts = make([]*faults.Injector, nn)
	const jitterRole = 0x7C15
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			l := src*nn + dst
			s.jitter[l] = faults.NewStream(cfg.Seed, jitterRole, l)
			s.links[l] = cfg.Faults.Link(l)
		}
		s.parts[src] = cfg.Faults.Partitioner(src)
	}

	seen := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		if j.Node < 0 || j.Node >= nn {
			return nil, fmt.Errorf("cluster: job %d arrives at node %d of %d", j.ID, j.Node, nn)
		}
		if seen[j.ID] {
			return nil, fmt.Errorf("cluster: duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
		jj := &simJob{SimJob: j}
		s.schedule(j.ArriveNS, &simEvent{kind: evArrive, node: j.Node, job: jj})
	}
	if len(jobs) > 0 {
		s.schedule(cfg.GossipEveryNS, &simEvent{kind: evTick})
	}

	for s.heap.Len() > 0 {
		e := heap.Pop(&s.heap).(*simEvent)
		s.now = e.t
		switch e.kind {
		case evArrive:
			s.onArrive(e.node, e.job)
		case evComplete:
			s.onComplete(e.node)
		case evTick:
			s.onTick()
		case evDeliver:
			s.onDeliver(e.msg)
		case evAckTimeout:
			s.onAckTimeout(e.node, e.tok)
		}
	}

	s.report.MakespanNS = s.now
	s.report.Completed = s.completed
	s.report.PerNode = make([]SimNodeStats, nn)
	for i, n := range s.nodes {
		s.report.PerNode[i] = n.stats
		if len(n.queue) > 0 || n.running != nil {
			s.report.Violations = append(s.report.Violations,
				fmt.Sprintf("node %d ended with work: queue=%d running=%v", i, len(n.queue), n.running != nil))
		}
		for tok, p := range n.pending {
			if !p.done {
				s.report.Violations = append(s.report.Violations,
					fmt.Sprintf("node %d ended with pending forward %s", i, tok))
			}
		}
	}
	if s.completed != s.total {
		s.report.Violations = append(s.report.Violations,
			fmt.Sprintf("%d of %d jobs never completed", s.total-s.completed, s.total))
	}
	sort.Strings(s.report.Violations)
	return &s.report, nil
}

func (s *sim) schedule(t int64, e *simEvent) {
	if t < s.now {
		t = s.now
	}
	e.t = t
	e.seq = s.seq
	s.seq++
	heap.Push(&s.heap, e)
}

func (s *sim) log(kind string, node, job, peer int) {
	s.report.Events = append(s.report.Events, SimEvent{T: s.now, Kind: kind, Node: node, Job: job, Peer: peer})
}

func (s *sim) partitioned(node int) bool {
	n := s.nodes[node]
	if n.partUntil > s.now {
		return true
	}
	for _, w := range s.cfg.Partitions {
		if w.Node == node && s.now >= w.StartNS && s.now < w.EndNS {
			return true
		}
	}
	return false
}

// send models one message: partition and drop checks at send time, fault
// and jitter draws from the directed link's streams, optional duplicate
// delivery. Receiver-side partition is re-checked at delivery.
func (s *sim) send(m *simMsg) {
	job := -1
	if m.job != nil {
		job = m.job.ID
	}
	if s.partitioned(m.from) || s.partitioned(m.to) {
		s.log("drop", m.from, job, m.to)
		return
	}
	l := m.from*s.cfg.Nodes + m.to
	if in := s.links[l]; in != nil {
		if in.DropMessage() {
			s.report.Drops++
			s.log("drop", m.from, job, m.to)
			return
		}
	}
	lat := s.cfg.BaseLatencyNS + int64(s.jitter[l].Next()%uint64(s.cfg.JitterNS))
	copies := 1
	if in := s.links[l]; in != nil {
		if d := in.ExtraDelayNS(); d > 0 {
			s.report.Delays++
			lat += d
		}
		if in.DuplicateMessage() {
			s.report.Dups++
			copies = 2
			s.log("dup", m.from, job, m.to)
		}
	}
	for c := 0; c < copies; c++ {
		s.schedule(s.now+lat, &simEvent{kind: evDeliver, msg: m})
	}
}

func (s *sim) onArrive(node int, j *simJob) {
	n := s.nodes[node]
	n.stats.Arrived++
	s.log("arrive", node, j.ID, -1)
	s.enqueue(n, j)
}

func (s *sim) enqueue(n *simNode, j *simJob) {
	n.queue = append(n.queue, j)
	s.maybeStart(n)
}

func (s *sim) maybeStart(n *simNode) {
	if n.running != nil || len(n.queue) == 0 {
		return
	}
	j := n.queue[0]
	n.queue = n.queue[1:]
	n.running = j
	n.stats.BusyNS += j.ServiceNS
	s.log("start", n.id, j.ID, -1)
	s.schedule(s.now+j.ServiceNS, &simEvent{kind: evComplete, node: n.id})
}

func (s *sim) onComplete(node int) {
	n := s.nodes[node]
	j := n.running
	n.running = nil
	if _, done := s.report.Values[j.ID]; done {
		s.report.Duplicates++
		n.stats.Duplicates++
		s.log("dup-complete", node, j.ID, -1)
	} else {
		s.report.Values[j.ID] = j.Value
		s.report.SojournNS[j.ID] = s.now - j.ArriveNS
		s.completed++
		n.stats.Completed++
		s.log("complete", node, j.ID, -1)
	}
	s.maybeStart(n)
}

// onTick is the global decision tick: probe injected partitions, exchange
// load, then act on each node's Decide. Nodes act in id order, which fixes
// the draw order and keeps the run deterministic.
func (s *sim) onTick() {
	for _, n := range s.nodes {
		if in := s.parts[n.id]; in != nil {
			if d := in.PartitionNS(); d > 0 && n.partUntil <= s.now {
				n.partUntil = s.now + d
				s.log("partition", n.id, -1, -1)
			}
		}
	}
	// Load exchange: every node gossips its score to every peer.
	for _, n := range s.nodes {
		for p := range s.nodes {
			if p == n.id {
				continue
			}
			s.send(&simMsg{kind: mGossip, from: n.id, to: p, load: n.load()})
		}
	}
	s.log("gossip", -1, -1, -1)
	// Decide: one kernel call per node over the peers it has a load view
	// of. A decision reads only the node's own load and views, and a shed
	// touches only the shedder's queue, so deciding for every node before
	// any steal goes out is the same as deciding in turn. All sheds are
	// sent before all steals, each in id order — the draw order the
	// recorded logs were made with.
	for _, n := range s.nodes {
		peers := s.peers[:0]
		for p, l := range n.known {
			if p != n.id && l >= 0 {
				peers = append(peers, PeerLoad{Peer: p, Load: l})
			}
		}
		act, _ := Decide(n.load(), true, peers, s.cfg.Policy)
		s.acts[n.id] = act
		if act.Kind == Shed {
			s.shed(n, act.Peer, act.N)
		}
	}
	for _, n := range s.nodes {
		if act := s.acts[n.id]; act.Kind == Steal {
			s.log("steal", n.id, -1, act.Peer)
			s.send(&simMsg{kind: mSteal, from: n.id, to: act.Peer, thief: n.id, max: act.N})
		}
	}
	// Keep ticking while any work is outstanding anywhere.
	if s.completed < s.total {
		s.schedule(s.now+s.cfg.GossipEveryNS, &simEvent{kind: evTick})
	}
}

// shed forwards up to max queue-tail jobs from n to peer with ack
// tracking. Jobs at their hop limit stay put.
func (s *sim) shed(n *simNode, peer, max int) {
	for i := 0; i < max && len(n.queue) > 0; i++ {
		j := n.queue[len(n.queue)-1]
		if !s.cfg.Policy.MayHop(j.hops) {
			return
		}
		n.queue = n.queue[:len(n.queue)-1]
		j.hops++
		s.tokenSeq++
		tok := fmt.Sprintf("n%d-j%d-t%d", n.id, j.ID, s.tokenSeq)
		n.pending[tok] = &pendingFwd{job: j, to: peer}
		n.stats.ForwardedOut++
		s.log("forward", n.id, j.ID, peer)
		s.send(&simMsg{kind: mForward, from: n.id, to: peer, job: j, token: tok})
		s.schedule(s.now+s.cfg.AckTimeoutNS, &simEvent{kind: evAckTimeout, node: n.id, tok: tok})
	}
}

func (s *sim) onDeliver(m *simMsg) {
	if s.partitioned(m.to) {
		job := -1
		if m.job != nil {
			job = m.job.ID
		}
		s.log("drop", m.from, job, m.to)
		return
	}
	n := s.nodes[m.to]
	switch m.kind {
	case mGossip:
		n.known[m.from] = m.load
	case mForward:
		// Ack duplicates too: the sender's retry must converge even when
		// the first ack was lost.
		if !n.seen[m.token] {
			n.seen[m.token] = true
			n.stats.ForwardedIn++
			s.log("deliver", m.to, m.job.ID, m.from)
			s.enqueue(n, m.job)
		}
		s.send(&simMsg{kind: mAck, from: m.to, to: m.from, token: m.token})
	case mAck:
		if p, ok := n.pending[m.token]; ok && !p.done {
			p.done = true
			s.log("ack", m.to, p.job.ID, m.from)
		}
	case mSteal:
		if served := s.cfg.Policy.StealGrant(m.max, len(n.queue)); served > 0 {
			n.stats.StealsServed++
			s.shed(n, m.thief, served)
		}
	}
}

// onAckTimeout requeues a forwarded job whose ack never arrived. The
// forward may still have been delivered — that is the at-least-once
// hazard the dedupe and duplicate accounting absorb.
func (s *sim) onAckTimeout(node int, tok string) {
	n := s.nodes[node]
	p, ok := n.pending[tok]
	if !ok || p.done {
		return
	}
	p.done = true
	n.stats.Requeues++
	s.log("requeue", node, p.job.ID, p.to)
	s.enqueue(n, p.job)
}
