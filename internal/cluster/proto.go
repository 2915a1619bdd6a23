// Package cluster is the multi-node tier: several serve processes forming
// a group that exchanges load views, forwards queued jobs from hot nodes
// to cold ones, and lets an idle node steal from a peer's backlog.
//
// The design follows the intra-node scheduler one level up. A node's
// "deque" is its weighted-fair admission queue; the only work that ever
// moves is queued, not-yet-admitted jobs — still plain serialisable
// requests — so a forward is a serialize-and-resubmit with tenant and
// priority metadata intact, never a mid-run migration. Remote steal is the
// symmetric operation: the thief asks the victim to forward to it, so one
// delivery mechanism (with one dedupe and one accounting contract) serves
// both directions.
//
// Two transports exist. The HTTP/JSON transport (http.go) wires real serve
// processes together via three endpoints mounted on the service mux. The
// Sim transport (sim.go) is a single-goroutine discrete-event model with
// virtual network costs — latency, loss, duplication and partitions drawn
// from internal/faults' seed-keyed streams, mirroring how internal/vtime
// charges virtual CPU costs — so whole-cluster chaos soaks replay
// byte-identically on a 1-core host.
package cluster

import (
	"context"

	"adaptivetc/internal/serve"
)

// LoadReport is one node's gossiped load view.
type LoadReport struct {
	// Node is the reporting node's advertised identity.
	Node string `json:"node"`
	// Score is the comparable load signal: backlog depth + busy workers
	// (serve.Service.LoadScore).
	Score int `json:"score"`
	// Busy is the busy-worker count.
	Busy int64 `json:"busy"`
	// Queue is the admission backlog depth (queued + staged).
	Queue int `json:"queue"`
	// ForwardedNow is the node's pending-forward gauge, so peers can tell
	// a node that already shed its backlog from a genuinely idle one.
	ForwardedNow int64 `json:"forwarded_now"`
	// Draining reports the node refuses new work.
	Draining bool `json:"draining"`
}

// ForwardRequest carries one job to a peer.
type ForwardRequest struct {
	// Req is the original submission, tenant/priority/engine intact.
	Req serve.Request `json:"req"`
	// Origin is the forwarding node's identity, recorded on the remote job.
	Origin string `json:"origin"`
	// Token dedupes redelivery: it is unique per origin job (origin +
	// local job id), so a retried or duplicated forward of the same job
	// resolves to the same remote job instead of running twice.
	Token string `json:"token"`
	// Hops counts this forward and every earlier one of the same job, so
	// the receiver can apply Policy.MayHop before shedding it onward. A
	// sender that predates the field reads as zero: a job never forwarded.
	Hops int `json:"hops,omitempty"`
}

// ForwardReply acknowledges an accepted forward.
type ForwardReply struct {
	// JobID is the job's id on the accepting node.
	JobID string `json:"job_id"`
	// Dup reports the token had been seen before (the reply points at the
	// earlier job).
	Dup bool `json:"dup,omitempty"`
}

// StealRequest asks a victim to shed queued work to the thief.
type StealRequest struct {
	// Thief is the requesting node's identity (a peer URL the victim can
	// forward to).
	Thief string `json:"thief"`
	// Max bounds how many jobs the victim hands over.
	Max int `json:"max"`
}

// StealReply reports the steal outcome.
type StealReply struct {
	// Moved is the number of jobs forwarded to the thief.
	Moved int `json:"moved"`
}

// Transport is the node-to-node wire. Implementations: the HTTP/JSON
// transport (NewHTTPTransport) for real processes, and the in-memory fake
// of node_test.go. The deterministic Sim model does not implement
// Transport — it cannot: a synchronous call interface forces goroutines,
// and determinism on one core needs a single event loop (see sim.go).
type Transport interface {
	// Load fetches peer's current load view.
	Load(ctx context.Context, peer string) (LoadReport, error)
	// Forward places one job on peer.
	Forward(ctx context.Context, peer string, req ForwardRequest) (ForwardReply, error)
	// Steal asks peer to forward up to req.Max queued jobs to req.Thief.
	Steal(ctx context.Context, peer string, req StealRequest) (StealReply, error)
	// Status fetches a remote job's status. A job still live holds the
	// call until it settles, ctx ends, or a bound of the transport's own
	// choosing passes; the origin's watcher calls again after a live
	// answer, so a Status that never blocks makes that watcher spin.
	Status(ctx context.Context, peer, jobID string) (serve.JobStatus, error)
	// Cancel best-effort cancels a remote job.
	Cancel(ctx context.Context, peer, jobID string) error
}
