// The cluster-facing half of the service: forward-on-full, queued-job
// extraction for rebalancing and remote steal, and peer-side admission of
// forwarded jobs. The service never talks to the network itself — the
// cluster tier (internal/cluster) installs a ForwardFunc and calls the
// extraction API; everything here is transport-agnostic bookkeeping.
//
// The accounting contract (the "count the 429 exactly once" rule):
//
//   - A client-visible capacity rejection is counted in `rejected` only at
//     the node the client submitted to, and only when the client actually
//     receives the 429 — i.e. after forwarding was unavailable or failed.
//     The Retry-After hint on that 429 is always this node's own, never a
//     peer's relayed hint.
//   - A peer refusing a *forwarded* job counts it in `forward_rejected`
//     only. The originating node requeues (background rebalance) or
//     rejects with its own hint (forward-on-full), so cluster-wide the
//     client's 429 appears exactly once.
package serve

import (
	"context"
	"time"

	"adaptivetc/internal/sched"
	"adaptivetc/internal/wsrt"
)

// Forwarded describes a job successfully placed on a peer.
type Forwarded struct {
	// Node is the peer's advertised identity (URL or name).
	Node string
	// JobID is the job's id on the peer.
	JobID string
	// Wait blocks until the remote job reaches a terminal state and
	// returns its outcome. It must honour ctx: on cancellation it should
	// best-effort cancel the remote job and return ctx's cause.
	Wait func(ctx context.Context) (sched.Result, error)
}

// ForwardFunc places a request on a peer synchronously. A nil error means
// the peer accepted the job; any error means no peer could take it and the
// caller falls back to local handling.
type ForwardFunc func(req Request) (*Forwarded, error)

// forwarderBox keeps atomic.Value's concrete type stable.
type forwarderBox struct{ fn ForwardFunc }

// SetForwarder installs the cluster forward-on-full hook, consulted by
// Submit when the local backlog is full. Safe to call at any time; nil
// restores single-node behaviour.
func (s *Service) SetForwarder(fn ForwardFunc) { s.forwarder.Store(forwarderBox{fn}) }

// LoadScore is the node's cluster load signal: backlog depth (weighted-
// fair queue plus the staged job) plus busy workers. Gossip exchanges it;
// the forward and steal policies compare it across nodes.
func (s *Service) LoadScore() int {
	return int(s.waiting.Load() + s.pool.BusyWorkers())
}

// forwardOrReject handles Submit's capacity miss: try the forwarder, and
// only if that fails surface the client's 429 — counted once, with this
// node's own Retry-After.
func (s *Service) forwardOrReject(it *admItem) (*Job, error) {
	job := it.job
	rej := error(wsrt.ErrQueueFull)
	if fw, _ := s.forwarder.Load().(forwarderBox); fw.fn != nil {
		if placed, err := fw.fn(job.Req); err == nil {
			return s.adoptForwarded(it, placed)
		}
		rej = &RejectionError{Tenant: job.tenant, Reason: "capacity", RetryAfter: time.Second, cause: wsrt.ErrQueueFull}
	}
	job.ts.rejected.Add(1)
	job.cancel(rej)
	return nil, rej
}

// adoptForwarded registers a job the forwarder just placed on a peer: the
// record lives here in StateForwarded (the client polls this node), the
// remote watcher settles it when the peer finishes. The job holds no local
// queue slot — that is the point of forwarding — but it does count toward
// the tenant's in-flight quota, which was checked before the capacity miss.
func (s *Service) adoptForwarded(it *admItem, placed *Forwarded) (*Job, error) {
	job := it.job
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		job.cancel(wsrt.ErrPoolClosed)
		return nil, wsrt.ErrPoolClosed
	}
	s.jobs[job.ID] = job
	s.followRemote(it, placed)
	s.mu.Unlock()

	job.ts.submitted.Add(1)
	job.cls.submitted.Add(1)
	return job, nil
}

// followRemote commits a forward: the job enters StateForwarded, naming the
// peer and its id there, and a watcher follows it to its remote terminal
// state. The wait context merges the job's own context with service
// shutdown, so Close never blocks on a peer that stopped answering.
func (s *Service) followRemote(it *admItem, placed *Forwarded) {
	job := it.job
	s.transition(job, StateForwarded, func() { job.remoteNode, job.remoteID = placed.Node, placed.JobID })
	s.forwardedOut.Add(1)
	if rec := it.spec.Tracer; rec != nil {
		rec.Release() // the peer audits the run; the local recorder never sees it
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		wctx, stop := context.WithCancelCause(it.spec.Ctx)
		unhook := context.AfterFunc(s.quit, func() { stop(wsrt.ErrPoolClosed) })
		res, err := placed.Wait(wctx)
		unhook()
		stop(nil)
		s.finalize(job, nil, res, err)
	}()
}

// RemoteJob is one queued job extracted for forwarding: still owned by
// this node (the client polls here) but out of the weighted-fair queue.
// The extractor must finish it with exactly one of Requeue or Placed.
type RemoteJob struct {
	s  *Service
	it *admItem
}

// ID returns the job's local id.
func (r *RemoteJob) ID() string { return r.it.job.ID }

// Hops returns how many forwards the job already has behind it.
func (r *RemoteJob) Hops() int { return r.it.job.hops }

// Request returns the submission to replay on the peer — still a plain
// JobSpec-shaped request, tenant and priority included, which is what
// makes forwarding a serialize-and-resubmit rather than a migration.
func (r *RemoteJob) Request() Request { return r.it.job.Req }

// Requeue returns the job to the head of its tenant queue (forward failed
// or no peer wanted it) and feeds the pool. Queue-slot accounting never
// moved, so this is position-only.
func (r *RemoteJob) Requeue() {
	r.s.enqueue(r.it, true)
}

// Placed commits the forward: the peer at node accepted the job as
// remoteID. The local queue slot is released (capacity frees up) and a
// remote watcher settles the record when the peer is done.
func (r *RemoteJob) Placed(node, remoteID string, wait func(ctx context.Context) (sched.Result, error)) {
	r.s.followRemote(r.it, &Forwarded{Node: node, JobID: remoteID, Wait: wait})
}

// Queued is the number of jobs ExtractQueued could reach right now: the
// weighted-fair queue's depth, without the staged and running jobs that
// LoadScore also counts.
func (s *Service) Queued() int { return s.q.depth() }

// ExtractQueued removes up to max queued, not-yet-admitted jobs for
// forwarding, in reverse service order (the work that would wait longest
// leaves first). mayHop is the cluster's hop guard: a job whose forward
// count it refuses stays queued and is passed over. Jobs already cancelled
// are retired on the spot and do not count. Running jobs are never touched
// — there is no mid-run migration.
func (s *Service) ExtractQueued(max int, mayHop func(hops int) bool) []*RemoteJob {
	if max <= 0 {
		return nil
	}
	items := s.q.extractBack(max, func(it *admItem) bool { return mayHop(it.job.hops) })
	out := make([]*RemoteJob, 0, len(items))
	for _, it := range items {
		if ctx := it.spec.Ctx; ctx != nil && ctx.Err() != nil {
			s.retireQueued(it, context.Cause(ctx))
			continue
		}
		out = append(out, &RemoteJob{s: s, it: it})
	}
	return out
}

// SubmitForwarded admits a job a peer forwarded here. It runs the same
// validation and capacity bound as Submit but skips the tenant rate limit
// and quota — both were charged at the originating node — and it never
// re-forwards: a full backlog is refused with wsrt.ErrQueueFull, counted
// in forward_rejected (not the client-visible rejected counter; the origin
// owns the client's 429). origin records which peer sent the job, hops how
// many forwards it has behind it including this one.
func (s *Service) SubmitForwarded(req Request, origin string, hops int) (*Job, error) {
	return s.admit(req, entry{from: fromPeer, origin: origin, hops: hops})
}
