// The real-transport cluster node: two periodic loops (gossip pull, and
// the decision tick that acts on decide.go's Decide) plus the synchronous
// forward-on-full hook installed into the service's Submit path. Every
// comparison of loads, thresholds and hop counts lives in decide.go; this
// file gathers the inputs and carries out the action.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/serve"
)

// Config configures a Node.
type Config struct {
	// Self is this node's advertised base URL (peers reach it there).
	Self string
	// Peers are the other nodes' base URLs. Their order breaks load ties:
	// the first listed of equally loaded peers is picked.
	Peers []string
	// GossipInterval paces the load-exchange and decision loops. Zero
	// means 100ms.
	GossipInterval time.Duration
	// Policy is the decision rule set, the same value the Sim runs.
	Policy
	// RPCTimeout bounds job-placement calls (forward, steal). Zero means
	// 1s. Deliberately independent of GossipInterval: gossip can run at
	// millisecond cadence with stale views being harmless, but a
	// placement call racing CPU-saturated workers needs real headroom.
	RPCTimeout time.Duration
}

func (c Config) gossipInterval() time.Duration {
	if c.GossipInterval <= 0 {
		return 100 * time.Millisecond
	}
	return c.GossipInterval
}

func (c Config) rpcTimeout() time.Duration {
	if c.RPCTimeout <= 0 {
		return time.Second
	}
	return c.RPCTimeout
}

// peerView is the last load report received from one peer. ok is false
// until the first report arrives and again whenever an exchange fails.
type peerView struct {
	report LoadReport
	ok     bool
}

// Node ties one serve.Service into a cluster.
type Node struct {
	cfg Config
	svc *serve.Service
	tr  Transport

	quit chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	views []peerView // parallel to cfg.Peers

	// Dedupe of inbound forwards: token → local job id, bounded FIFO.
	dedupeMu  sync.Mutex
	dedupe    map[string]string
	dedupeLog []string

	gossipOK      atomic.Int64
	gossipFail    atomic.Int64
	rebalancedOut atomic.Int64 // jobs shed by the decision loop
	stealRequests atomic.Int64 // steal requests this node sent
	stealMoved    atomic.Int64 // jobs received through those requests
	stealServed   atomic.Int64 // jobs shed when peers stole from us
	forwardFailed atomic.Int64 // forward attempts no peer accepted
}

// NewNode builds a cluster node around svc. tr nil means the HTTP
// transport. Call Start to join the cluster.
func NewNode(cfg Config, svc *serve.Service, tr Transport) *Node {
	if tr == nil {
		tr = NewHTTPTransport(0)
	}
	return &Node{
		cfg:    cfg,
		svc:    svc,
		tr:     tr,
		quit:   make(chan struct{}),
		views:  make([]peerView, len(cfg.Peers)),
		dedupe: make(map[string]string),
	}
}

// Service returns the node's service.
func (n *Node) Service() *serve.Service { return n.svc }

// Start installs the forward-on-full hook and launches the gossip and
// decision loops. Gossip keeps a goroutine of its own so that a peer slow
// to answer a load pull cannot delay a decision.
func (n *Node) Start() {
	n.svc.SetForwarder(n.forwardOnFull)
	n.wg.Add(2)
	go n.every(n.gossip)
	go n.every(n.decide)
}

// Stop uninstalls the hook and stops the loops. In-flight remote watchers
// belong to the service and settle through its own drain/close.
func (n *Node) Stop() {
	n.svc.SetForwarder(nil)
	close(n.quit)
	n.wg.Wait()
}

// every runs step once per gossip interval until Stop. A step that
// overruns just delays the next one (NewTicker drops ticks).
func (n *Node) every(step func()) {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.gossipInterval())
	defer tick.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-tick.C:
			step()
		}
	}
}

// rpcCtx bounds one peer call by the placement timeout.
func (n *Node) rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), n.cfg.rpcTimeout())
}

// gossip pulls every peer's load view. Pull keeps the protocol
// one-directional and trivially idempotent: a node that misses a round
// just serves a slightly stale view.
func (n *Node) gossip() {
	for i, peer := range n.cfg.Peers {
		// rpcTimeout, not the gossip interval: at millisecond cadence on a
		// saturated host a single slow round would mark a healthy peer
		// unusable exactly when forward-on-full needs it.
		ctx, cancel := n.rpcCtx()
		r, err := n.tr.Load(ctx, peer)
		cancel()
		n.mu.Lock()
		if err != nil {
			n.gossipFail.Add(1)
			// Keep the stale report but mark it unusable; a partitioned
			// peer must not keep attracting forwards on old numbers.
			n.views[i].ok = false
		} else {
			n.gossipOK.Add(1)
			n.views[i] = peerView{report: r, ok: true}
		}
		n.mu.Unlock()
	}
}

// usablePeers returns what the kernel may see, in Config.Peers order:
// peers whose last load exchange succeeded and that are not draining.
func (n *Node) usablePeers() []PeerLoad {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerLoad, 0, len(n.views))
	for i, v := range n.views {
		if v.ok && !v.report.Draining {
			out = append(out, PeerLoad{Peer: i, Load: v.report.Score})
		}
	}
	return out
}

// decide is one decision tick: ask the kernel, carry out what it says.
func (n *Node) decide() {
	act, ok := Decide(n.svc.LoadScore(), n.svc.Ready(), n.usablePeers(), n.cfg.Policy)
	if !ok {
		return
	}
	peer := n.cfg.Peers[act.Peer]
	switch act.Kind {
	case Shed:
		n.rebalancedOut.Add(int64(n.shed(act.N, peer)))
	case Steal:
		ctx, cancel := n.rpcCtx()
		reply, err := n.tr.Steal(ctx, peer, StealRequest{Thief: n.cfg.Self, Max: act.N})
		cancel()
		n.stealRequests.Add(1)
		if err == nil {
			n.stealMoved.Add(int64(reply.Moved))
		}
	}
}

// shed forwards up to max jobs from the queue tail to peer, leaving jobs
// at their hop limit queued, and returns how many were placed.
func (n *Node) shed(max int, peer string) (moved int) {
	for _, rj := range n.svc.ExtractQueued(max, n.cfg.Policy.MayHop) {
		if n.forwardRemoteJob(rj, peer) {
			moved++
		}
	}
	return moved
}

// forwardOnFull is the hook Submit calls on a capacity miss: place the
// request on the least-loaded peer that is measurably colder than us.
func (n *Node) forwardOnFull(req serve.Request) (*serve.Forwarded, error) {
	for _, v := range Colder(n.svc.LoadScore(), n.usablePeers()) {
		peer := n.cfg.Peers[v.Peer]
		fr := ForwardRequest{Req: req, Origin: n.cfg.Self, Token: newToken(n.cfg.Self), Hops: 1}
		ctx, cancel := n.rpcCtx()
		reply, err := n.tr.Forward(ctx, peer, fr)
		cancel()
		if err != nil {
			continue
		}
		return &serve.Forwarded{Node: peer, JobID: reply.JobID, Wait: n.waitRemote(peer, reply.JobID)}, nil
	}
	n.forwardFailed.Add(1)
	return nil, errors.New("cluster: no peer can take the job")
}

// tokenSeq disambiguates forward-on-full tokens, which have no local job
// id yet at send time.
var tokenSeq atomic.Int64

func newToken(self string) string {
	return fmt.Sprintf("%s/onfull-%d", self, tokenSeq.Add(1))
}

// forwardRemoteJob ships one extracted job to peer; on any failure the job
// goes back to the head of its local queue. Reports whether it was placed.
func (n *Node) forwardRemoteJob(rj *serve.RemoteJob, peer string) bool {
	fr := ForwardRequest{
		Req:    rj.Request(),
		Origin: n.cfg.Self,
		Token:  n.cfg.Self + "/" + rj.ID(),
		Hops:   rj.Hops() + 1,
	}
	ctx, cancel := n.rpcCtx()
	reply, err := n.tr.Forward(ctx, peer, fr)
	cancel()
	if err != nil {
		n.forwardFailed.Add(1)
		rj.Requeue()
		return false
	}
	rj.Placed(peer, reply.JobID, n.waitRemote(peer, reply.JobID))
	return true
}

// The lost-contact bound of a forwarded job's watcher: more than maxMisses
// consecutive failed Status calls fail the job. retryGap is the pause
// after each failed call, so the bound is seconds of a restarting or
// partitioned peer, not microseconds of refused connections.
const (
	maxMisses = 100
	retryGap  = 50 * time.Millisecond
)

// waitRemote returns the watcher the service runs for a forwarded job:
// one blocking Status call per transport bound until the job is terminal,
// pausing only after a call that failed; honour ctx by best-effort
// cancelling the remote job.
func (n *Node) waitRemote(peer, jobID string) func(ctx context.Context) (sched.Result, error) {
	return func(ctx context.Context) (sched.Result, error) {
		var misses int
		for {
			st, err := n.tr.Status(ctx, peer, jobID)
			if err == nil {
				switch st.State {
				case serve.StateDone, serve.StateFailed, serve.StateCancelled:
					return resultFromStatus(st)
				}
			}
			if ctx.Err() != nil {
				// The local job was cancelled (or the service is closing):
				// tell the peer, then settle with the local cause.
				cctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_ = n.tr.Cancel(cctx, peer, jobID)
				cancel()
				return sched.Result{}, context.Cause(ctx)
			}
			if err == nil {
				// Still live when the transport's bound passed: ask again.
				misses = 0
				continue
			}
			// Transport error: the peer may be restarting or partitioned.
			// A bounded number of consecutive misses fails the job with
			// an explicit error instead of wedging the record forever.
			misses++
			if misses > maxMisses {
				return sched.Result{}, fmt.Errorf("cluster: lost contact with %s polling job %s: %w", peer, jobID, err)
			}
			select {
			case <-ctx.Done():
				// Loop once more; the ctx.Err branch settles it.
			case <-time.After(retryGap):
			}
		}
	}
}

// resultFromStatus converts a terminal remote JobStatus into the local
// result/err pair finalize classifies.
func resultFromStatus(st serve.JobStatus) (sched.Result, error) {
	res := sched.Result{Engine: st.Engine, Program: st.Program, Makespan: int64(st.MakespanMS * 1e6)}
	if st.Value != nil {
		res.Value = *st.Value
	}
	if st.Stats != nil {
		res.Stats = *st.Stats
	}
	switch st.State {
	case serve.StateDone:
		return res, nil
	case serve.StateCancelled:
		return res, fmt.Errorf("cluster: remote job cancelled (%s): %w", st.Error, serve.ErrCancelled)
	default:
		return res, fmt.Errorf("cluster: remote job failed: %s", st.Error)
	}
}

// acceptForward is the peer-side inbound path (shared by the HTTP handler):
// dedupe on the token, then admit through SubmitForwarded.
func (n *Node) acceptForward(fr ForwardRequest) (ForwardReply, error) {
	n.dedupeMu.Lock()
	if id, ok := n.dedupe[fr.Token]; ok {
		n.dedupeMu.Unlock()
		return ForwardReply{JobID: id, Dup: true}, nil
	}
	n.dedupeMu.Unlock()
	job, err := n.svc.SubmitForwarded(fr.Req, fr.Origin, fr.Hops)
	if err != nil {
		return ForwardReply{}, err
	}
	n.dedupeMu.Lock()
	n.dedupe[fr.Token] = job.ID
	n.dedupeLog = append(n.dedupeLog, fr.Token)
	const dedupeCap = 4096
	for len(n.dedupeLog) > dedupeCap {
		delete(n.dedupe, n.dedupeLog[0])
		n.dedupeLog = n.dedupeLog[1:]
	}
	n.dedupeMu.Unlock()
	return ForwardReply{JobID: job.ID}, nil
}

// serveSteal is the victim-side steal handler: extract and forward to the
// thief through the normal forwarding path.
func (n *Node) serveSteal(req StealRequest) StealReply {
	moved := n.shed(n.cfg.Policy.StealGrant(req.Max, n.svc.Queued()), req.Thief)
	n.stealServed.Add(int64(moved))
	return StealReply{Moved: moved}
}

// loadReport renders this node's gossiped view.
func (n *Node) loadReport() LoadReport {
	m := n.svc.Snapshot()
	return LoadReport{
		Node:         n.cfg.Self,
		Score:        m.LoadScore,
		Busy:         m.BusyWorkers,
		Queue:        m.QueueDepth,
		ForwardedNow: m.ForwardedNow,
		Draining:     m.Draining,
	}
}

// Stats is the node's own counter snapshot (mounted at /cluster/stats).
type Stats struct {
	Self          string         `json:"self"`
	Peers         map[string]any `json:"peers,omitempty"`
	GossipOK      int64          `json:"gossip_ok"`
	GossipFail    int64          `json:"gossip_fail"`
	RebalancedOut int64          `json:"rebalanced_out"`
	StealRequests int64          `json:"steal_requests"`
	StealMoved    int64          `json:"steal_moved"`
	StealServed   int64          `json:"steal_served"`
	ForwardFailed int64          `json:"forward_failed"`
}

// Snapshot returns the node's counters and last known peer views.
func (n *Node) Snapshot() Stats {
	st := Stats{
		Self:          n.cfg.Self,
		GossipOK:      n.gossipOK.Load(),
		GossipFail:    n.gossipFail.Load(),
		RebalancedOut: n.rebalancedOut.Load(),
		StealRequests: n.stealRequests.Load(),
		StealMoved:    n.stealMoved.Load(),
		StealServed:   n.stealServed.Load(),
		ForwardFailed: n.forwardFailed.Load(),
	}
	n.mu.Lock()
	if len(n.views) > 0 {
		st.Peers = make(map[string]any, len(n.views))
		for i, v := range n.views {
			st.Peers[n.cfg.Peers[i]] = map[string]any{"score": v.report.Score, "ok": v.ok}
		}
	}
	n.mu.Unlock()
	return st
}
