// Tests of the real cluster tier. End to end: two in-process serve
// services wired through the HTTP/JSON transport over httptest servers —
// the same path `adaptivetc-serve -peers` runs, minus the TCP listener
// setup. Tick by tick: the same pair on an in-memory Transport, with
// gossip and decide driven by hand.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivetc/internal/serve"
)

type testNode struct {
	svc  *serve.Service
	node *Node
	url  string
}

// startCluster brings up fully-peered nodes, one per service config.
func startCluster(t *testing.T, configs []serve.Config, ccfg Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, len(configs))
	muxes := make([]*http.ServeMux, len(configs))
	for i, c := range configs {
		svc := serve.New(c)
		mux := serve.NewMux(svc)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{svc: svc, url: srv.URL}
		muxes[i] = mux
	}
	for i, tn := range nodes {
		cfg := ccfg
		cfg.Self = tn.url
		for j, peer := range nodes {
			if j != i {
				cfg.Peers = append(cfg.Peers, peer.url)
			}
		}
		tn.node = NewNode(cfg, tn.svc, nil)
		Mount(muxes[i], tn.node)
		tn.node.Start()
		t.Cleanup(tn.node.Stop)
		t.Cleanup(tn.svc.Close)
	}
	return nodes
}

// waitDone polls a job on its owning service until terminal.
func waitDone(t *testing.T, svc *serve.Service, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st, _, err := j.Snapshot()
		switch st {
		case serve.StateDone:
			return
		case serve.StateFailed, serve.StateCancelled:
			t.Fatalf("job %s ended %s: %v", id, st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
}

// TestTwoNodeForwarding pins the tentpole's real-transport path: skewed
// load at node A must spill to node B via the forward/steal plane, every
// job must complete on the client-visible record at A, and the gauges
// must return to zero once the burst settles.
func TestTwoNodeForwarding(t *testing.T) {
	nodes := startCluster(t,
		[]serve.Config{
			{Workers: 1, QueueCapacity: 4},
			{Workers: 2, QueueCapacity: 32},
		},
		Config{GossipInterval: 5 * time.Millisecond, Policy: Policy{ForwardThreshold: 2, Batch: 4}})
	a, b := nodes[0], nodes[1]

	// Wait for the first gossip exchange: forward-on-full needs a load
	// view of B before it can route around a full backlog.
	viewDeadline := time.Now().Add(5 * time.Second)
	for len(a.node.usablePeers()) == 0 {
		if time.Now().After(viewDeadline) {
			t.Fatalf("node A never learned node B's load")
		}
		time.Sleep(time.Millisecond)
	}

	// A long blocker pins A's lone worker, then a burst piles up behind it.
	blocker, err := a.svc.Submit(serve.Request{Program: "nqueens-array", N: 11, TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		j, err := a.svc.Submit(serve.Request{Program: "fib", N: 14, Tenant: "burst", TimeoutMS: 30000})
		if err != nil {
			t.Fatalf("burst %d: %v (forward-on-full should have absorbed this)", i, err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitDone(t, a.svc, id)
	}
	waitDone(t, a.svc, blocker.ID)

	ma, mb := a.svc.Snapshot(), b.svc.Snapshot()
	if ma.ForwardedOut == 0 {
		t.Errorf("node A forwarded nothing; A=%+v cluster=%+v", ma, a.node.Snapshot())
	}
	if mb.ForwardedIn == 0 || mb.Completed == 0 {
		t.Errorf("node B forwarded_in=%d completed=%d, want both > 0", mb.ForwardedIn, mb.Completed)
	}
	if ma.ForwardedNow != 0 {
		t.Errorf("node A still has %d forwards pending after all jobs settled", ma.ForwardedNow)
	}
}

// TestClusterStatsEndpoint smoke-checks the mounted endpoints a peer (and
// the CI smoke script) relies on.
func TestClusterStatsEndpoint(t *testing.T) {
	nodes := startCluster(t,
		[]serve.Config{{Workers: 1, QueueCapacity: 4}, {Workers: 1, QueueCapacity: 4}},
		Config{GossipInterval: 5 * time.Millisecond})
	tr := NewHTTPTransport(0)
	rep, err := tr.Load(t.Context(), nodes[0].url)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.Node != nodes[0].url {
		t.Errorf("load report identifies %q, want %q", rep.Node, nodes[0].url)
	}
	resp, err := http.Get(nodes[1].url + "/cluster/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats returned %d", resp.StatusCode)
	}
}

// memNet is the in-memory Transport that proto.go promises: a call lands
// directly on the target Node's handler, in the caller's goroutine, and
// every placement call is logged. With it a test drives gossip and decide
// ticks by hand, so what a node does with a decision is observable
// without sockets, tickers or sleeps. Status and Cancel calls, which come
// from watcher goroutines in no fixed order, are counted instead.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	muxes map[string]*http.ServeMux
	log   []string

	statusCalls atomic.Int64
	cancelCalls atomic.Int64
}

func newMemNet() *memNet {
	return &memNet{nodes: map[string]*Node{}, muxes: map[string]*http.ServeMux{}}
}

// add builds node self on the net, its loops not started.
func (m *memNet) add(t *testing.T, self, peer string, workers int, pol Policy) *Node {
	t.Helper()
	svc := serve.New(serve.Config{Workers: workers, QueueCapacity: 32})
	t.Cleanup(svc.Close)
	n := NewNode(Config{Self: self, Peers: []string{peer}, Policy: pol}, svc, memTransport{net: m, from: self})
	m.nodes[self], m.muxes[self] = n, serve.NewMux(svc)
	return n
}

type memTransport struct {
	net  *memNet
	from string
}

func (m *memNet) record(format string, args ...any) {
	m.mu.Lock()
	m.log = append(m.log, fmt.Sprintf(format, args...))
	m.mu.Unlock()
}

func (m *memNet) calls() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.log...)
}

func (t memTransport) Load(_ context.Context, peer string) (LoadReport, error) {
	return t.net.nodes[peer].loadReport(), nil
}

func (t memTransport) Forward(_ context.Context, peer string, fr ForwardRequest) (ForwardReply, error) {
	t.net.record("forward %s->%s %s hops=%d", t.from, peer, fr.Token, fr.Hops)
	return t.net.nodes[peer].acceptForward(fr)
}

func (t memTransport) Steal(_ context.Context, peer string, sr StealRequest) (StealReply, error) {
	t.net.record("steal %s->%s max=%d", sr.Thief, peer, sr.Max)
	return t.net.nodes[peer].serveSteal(sr), nil
}

// Status long-polls the peer's mux as the HTTP transport does, ctx standing
// in for the connection.
func (t memTransport) Status(ctx context.Context, peer, jobID string) (serve.JobStatus, error) {
	t.net.statusCalls.Add(1)
	var st serve.JobStatus
	rec := httptest.NewRecorder()
	t.net.muxes[peer].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+jobID+"?wait=1s", nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("status %s on %s: %d", jobID, peer, rec.Code)
	}
	return st, json.NewDecoder(rec.Body).Decode(&st)
}

func (t memTransport) Cancel(_ context.Context, peer, jobID string) error {
	t.net.cancelCalls.Add(1)
	t.net.nodes[peer].svc.Cancel(jobID)
	return nil
}

// hotPair builds nodes "a" and "b" on a memNet, loops not started. Node a
// is hot: its one worker is pinned by a blocker, one job is staged behind
// it, and its queue holds, head to tail, a pad job (the pump may hold the
// head for a moment, so no assertion leans on it), two local jobs, a
// forwarded-in job one hop short of the limit and two at the limit — the
// tail being exactly where the next shed looks first. Node b is idle. The
// returned tokens are what a forward of each movable job carries, in shed
// order.
func hotPair(t *testing.T) (a, b *Node, net *memNet, atLimit []string, movable []string) {
	t.Helper()
	net = newMemNet()
	pol := Policy{Batch: 3}
	a, b = net.add(t, "a", "b", 1, pol), net.add(t, "b", "a", 2, pol)

	submit := func(prog string, n int) string {
		j, err := a.svc.Submit(serve.Request{Program: prog, N: n, TimeoutMS: 30000})
		if err != nil {
			t.Fatalf("submit %s: %v", prog, err)
		}
		return j.ID
	}
	blocker := submit("nqueens-array", 12)
	t.Cleanup(func() { a.svc.Cancel(blocker) })
	for j, _ := a.svc.Get(blocker); ; time.Sleep(time.Millisecond) {
		if st, _, _ := j.Snapshot(); st == serve.StateRunning {
			break
		}
	}
	submit("fib", 10) // staged
	for a.svc.Queued() != 0 {
		time.Sleep(time.Millisecond)
	}
	submit("fib", 10) // pad
	local1, local2 := submit("fib", 11), submit("fib", 12)
	inbound := func(token string, hops int) string {
		reply, err := a.acceptForward(ForwardRequest{
			Req: serve.Request{Program: "fib", N: 13, TimeoutMS: 30000}, Origin: "c", Token: token, Hops: hops,
		})
		if err != nil {
			t.Fatalf("inbound %s: %v", token, err)
		}
		return reply.JobID
	}
	near := inbound("c/near", 2)
	atLimit = []string{inbound("c/limit-1", 3), inbound("c/limit-2", 3)}
	movable = []string{
		"forward a->b a/" + near + " hops=3",
		"forward a->b a/" + local2 + " hops=1",
		"forward a->b a/" + local1 + " hops=1",
	}
	return a, b, net, atLimit, movable
}

// TestNodeActsOnDecide drives the pair by hand and requires that each node
// issue exactly the action Decide returns for its inputs, and that neither
// shed path — rebalance on the hot node, steal service for the idle one —
// moves a job that has used up its hops. At the parent commit the hop
// count did not exist on the real node: the at-limit jobs, sitting at the
// tail, were the first to be re-shed.
func TestNodeActsOnDecide(t *testing.T) {
	stillQueued := func(t *testing.T, a *Node, ids []string) {
		t.Helper()
		for _, id := range ids {
			j, _ := a.svc.Get(id)
			if st, _, _ := j.Snapshot(); st != serve.StateQueued {
				t.Errorf("job %s at its hop limit is %s, want still queued on a", id, st)
			}
		}
	}

	t.Run("hot node sheds", func(t *testing.T) {
		a, _, net, atLimit, movable := hotPair(t)
		a.gossip()
		want, _ := Decide(a.svc.LoadScore(), a.svc.Ready(), a.usablePeers(), a.cfg.Policy)
		if want != (Action{Kind: Shed, Peer: 0, N: 3}) {
			t.Fatalf("setup: Decide = %+v, want a shed of 3 to peer 0", want)
		}
		a.decide()
		if got := net.calls(); !reflect.DeepEqual(got, movable) {
			t.Errorf("calls = %q\nwant  %q", got, movable)
		}
		if got := a.Snapshot().RebalancedOut; got != int64(want.N) {
			t.Errorf("rebalanced_out = %d, want %d", got, want.N)
		}
		stillQueued(t, a, atLimit)
	})

	t.Run("idle node steals", func(t *testing.T) {
		a, b, net, atLimit, movable := hotPair(t)
		b.gossip()
		want, _ := Decide(b.svc.LoadScore(), b.svc.Ready(), b.usablePeers(), b.cfg.Policy)
		if want != (Action{Kind: Steal, Peer: 0, N: 3}) {
			t.Fatalf("setup: Decide = %+v, want a steal of 3 from peer 0", want)
		}
		b.decide()
		// One request, answered by the victim forwarding through its own
		// shed path.
		if got, w := net.calls(), append([]string{"steal b->a max=3"}, movable...); !reflect.DeepEqual(got, w) {
			t.Errorf("calls = %q\nwant  %q", got, w)
		}
		if sa, sb := a.Snapshot(), b.Snapshot(); sa.StealServed != 3 || sb.StealRequests != 1 || sb.StealMoved != 3 {
			t.Errorf("steal_served=%d steal_requests=%d steal_moved=%d, want 3/1/3", sa.StealServed, sb.StealRequests, sb.StealMoved)
		}
		stillQueued(t, a, atLimit)
	})

	t.Run("no action, no call", func(t *testing.T) {
		a, b, net, _, _ := hotPair(t)
		// b drains: idle, a hot peer in view, and still it must not steal;
		// a sees b draining and has nobody to shed to.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := b.svc.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		a.gossip()
		b.gossip()
		a.decide()
		b.decide()
		if got := net.calls(); len(got) != 0 {
			t.Errorf("calls = %q, want none", got)
		}
	})
}

// forwardTo places req on a's peer through a's forward-on-full hook and
// returns what a's service would adopt, watcher included.
func forwardTo(t *testing.T, a *Node, req serve.Request) *serve.Forwarded {
	t.Helper()
	a.gossip()
	// Colder wants a measurable gap: any load at all on a, none on b.
	load, err := a.svc.Submit(serve.Request{Program: "nqueens-array", N: 15, TimeoutMS: 120000})
	if err != nil {
		t.Fatalf("load on a: %v", err)
	}
	t.Cleanup(func() { load.Cancel(serve.ErrCancelled) })
	for a.svc.LoadScore() == 0 {
		time.Sleep(time.Millisecond)
	}
	placed, err := a.forwardOnFull(req)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	return placed
}

// TestWaitRemoteBlocksOnStatus: following a forwarded job to its end costs
// one blocking Status call (two if the first raced the transport's bound),
// where the poll ladder paid one per 2, 4, 8 ... 250 ms of the job's life.
func TestWaitRemoteBlocksOnStatus(t *testing.T) {
	net := newMemNet()
	a, b := net.add(t, "a", "b", 1, Policy{}), net.add(t, "b", "a", 2, Policy{})
	placed := forwardTo(t, a, serve.Request{Program: "nqueens-array", N: 11})
	res, err := placed.Wait(context.Background())
	if err != nil || res.Value != 2680 {
		t.Fatalf("Wait = %+v, %v; want 11-queens' 2680 solutions", res, err)
	}
	if n := net.statusCalls.Load(); n < 1 || n > 2 {
		t.Errorf("following one forwarded job took %d Status calls, want 1 or 2", n)
	}
	if n := net.cancelCalls.Load(); n != 0 {
		t.Errorf("%d Cancel calls for a job that finished", n)
	}
	if m := b.svc.Snapshot(); m.ForwardedIn != 1 || m.Completed != 1 {
		t.Errorf("peer forwarded_in=%d completed=%d, want 1/1", m.ForwardedIn, m.Completed)
	}
}

// TestWaitRemoteCancel: cancelling the local job while its watcher blocks
// in Status sends the peer exactly one Cancel and settles with the local
// cause.
func TestWaitRemoteCancel(t *testing.T) {
	net := newMemNet()
	a, b := net.add(t, "a", "b", 1, Policy{}), net.add(t, "b", "a", 2, Policy{})
	placed := forwardTo(t, a, serve.Request{Program: "nqueens-array", N: 15, TimeoutMS: 120000})
	remote, ok := b.svc.Get(placed.JobID)
	if !ok {
		t.Fatalf("peer has no job %s", placed.JobID)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := placed.Wait(ctx)
		done <- err
	}()
	for net.statusCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel(serve.ErrCancelled)
	if err := <-done; !errors.Is(err, serve.ErrCancelled) {
		t.Fatalf("Wait after cancel = %v, want the local cause", err)
	}
	if n := net.cancelCalls.Load(); n != 1 {
		t.Errorf("%d remote Cancel calls, want exactly 1", n)
	}
	<-remote.Done()
	if st, _, _ := remote.Snapshot(); st != serve.StateCancelled {
		t.Errorf("remote job ended %s, want cancelled", st)
	}
}

// deadTransport fails every Status call at once, as a peer whose port
// refuses connections does.
type deadTransport struct {
	memTransport
	calls atomic.Int64
}

func (d *deadTransport) Status(context.Context, string, string) (serve.JobStatus, error) {
	d.calls.Add(1)
	return serve.JobStatus{}, errors.New("connection refused")
}

// TestWaitRemoteLostContact: against a peer that refuses every call the
// watcher gives up after maxMisses retries — seconds, because each failed
// call is followed by a pause; without it the bound is microseconds and a
// peer restart fails every job it held.
func TestWaitRemoteLostContact(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out maxMisses retry gaps")
	}
	tr := &deadTransport{}
	svc := serve.New(serve.Config{Workers: 1})
	t.Cleanup(svc.Close)
	n := NewNode(Config{Self: "a", Peers: []string{"b"}}, svc, tr)
	t0 := time.Now()
	_, err := n.waitRemote("b", "j9")(context.Background())
	took := time.Since(t0)
	if err == nil || !strings.Contains(err.Error(), "lost contact with b") {
		t.Fatalf("Wait on a dead peer = %v, want a lost-contact error", err)
	}
	if got := tr.calls.Load(); got != maxMisses+1 {
		t.Errorf("%d Status calls, want %d", got, maxMisses+1)
	}
	if took < time.Second || took > 60*time.Second {
		t.Errorf("gave up after %v, want seconds", took)
	}
}
