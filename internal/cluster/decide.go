// The cluster decision kernel: every rule that decides which queued job
// moves where, as pure functions over caller-owned values. The real Node
// (node.go) and the deterministic model (sim.go) both call these and
// nothing else, so what the Sim's partition, at-least-once and termination
// proofs exercise is the code that ships.
package cluster

// Policy is the whole cluster strategy as one value. The zero value of
// each field means its default; this file holds the only defaults table.
type Policy struct {
	// ForwardThreshold is the minimum load gap (self − coldest peer)
	// before a hot node sheds work. Zero means 4.
	ForwardThreshold int
	// Batch bounds the jobs moved by one decision or one steal request.
	// Zero means 4.
	Batch int
	// StealMinScore is the minimum victim load worth a steal request.
	// Zero means 2.
	StealMinScore int
	// MaxHops bounds how many times one job may be forwarded (the
	// ping-pong guard: without it a forwarded-in job sits at the queue
	// tail, which is the first thing the next shed takes). Zero means 3.
	MaxHops int
}

// WithDefaults returns p with every unset field at its default. The kernel
// applies it itself; callers need it only to show the effective values.
func (p Policy) WithDefaults() Policy {
	if p.ForwardThreshold <= 0 {
		p.ForwardThreshold = 4
	}
	if p.Batch <= 0 {
		p.Batch = 4
	}
	if p.StealMinScore <= 0 {
		p.StealMinScore = 2
	}
	if p.MaxHops <= 0 {
		p.MaxHops = 3
	}
	return p
}

// PeerLoad is one peer's last known load as the caller sees it. Peer is
// the caller's own index for the peer (a node id in the Sim, a position in
// Config.Peers on the real node); the kernel only hands it back.
type PeerLoad struct {
	Peer int
	Load int
}

// ActionKind says which way work moves.
type ActionKind int

const (
	// Shed: forward N jobs from this node's queue tail to Peer.
	Shed ActionKind = iota + 1
	// Steal: ask Peer to forward up to N of its queued jobs here.
	Steal
)

// Action is one decision: move up to N jobs to or from Peer.
type Action struct {
	Kind ActionKind
	Peer int
	N    int
}

// Decide is the per-tick rule set (DESIGN.md §15.1). A node's load is its
// backlog plus its busy executors (serve.Service.LoadScore on the real
// node, queue + running in the Sim).
//
//   - Shed (push) when this node is hot: selfLoad − coldest peer's load ≥
//     ForwardThreshold. It sheds half the gap — moving more would just
//     invert it — capped at Batch, from the tail of its backlog, to that
//     coldest peer.
//   - Steal (pull) when this node is idle: selfLoad == 0, the caller may
//     take work (canSteal: not draining), and the hottest peer's load ≥
//     StealMinScore. The thief asks for up to Batch jobs; the victim
//     answers by forwarding, so both triggers share one delivery path with
//     one dedupe and one accounting contract.
//
// Ties go to the first peer in caller order. peers must hold only peers
// the caller would act on: it leaves out itself, peers it has no load view
// of, peers whose last exchange failed and peers that refuse new work.
// The two rules cannot both fire (a hot node is not idle), so a tick
// yields at most one action; ok is false when neither does.
func Decide(selfLoad int, canSteal bool, peers []PeerLoad, p Policy) (act Action, ok bool) {
	if len(peers) == 0 {
		return Action{}, false
	}
	p = p.WithDefaults()
	cold, hot := peers[0], peers[0]
	for _, q := range peers[1:] {
		if q.Load < cold.Load {
			cold = q
		}
		if q.Load > hot.Load {
			hot = q
		}
	}
	// gap ≥ 2: a gap of one has no half to move.
	if gap := selfLoad - cold.Load; gap >= p.ForwardThreshold && gap >= 2 {
		return Action{Kind: Shed, Peer: cold.Peer, N: min(gap/2, p.Batch)}, true
	}
	if selfLoad == 0 && canSteal && hot.Load >= p.StealMinScore {
		return Action{Kind: Steal, Peer: hot.Peer, N: p.Batch}, true
	}
	return Action{}, false
}

// StealGrant is the victim side of a steal: how many of its queued jobs a
// node hands over for a request asking for reqMax. A request without a
// usable bound, or one above Batch, gets Batch.
func (p Policy) StealGrant(reqMax, queued int) int {
	p = p.WithDefaults()
	if reqMax <= 0 || reqMax > p.Batch {
		reqMax = p.Batch
	}
	return min(reqMax, queued)
}

// MayHop reports whether a job already forwarded hops times may be
// forwarded again. Both shed paths (rebalance and steal service) leave a
// job at its limit where it is.
func (p Policy) MayHop(hops int) bool {
	return hops < p.WithDefaults().MaxHops
}

// Colder orders the targets for forward-on-full — a client submission that
// missed the local capacity bound goes to a peer before the client ever
// sees a 429: the peers strictly colder than selfLoad, coldest first, ties
// in caller order. It filters and sorts peers in place and returns the
// prefix.
func Colder(selfLoad int, peers []PeerLoad) []PeerLoad {
	out := peers[:0]
	for _, q := range peers {
		if q.Load >= selfLoad {
			continue
		}
		// Stable insertion: peer lists are a handful long.
		i := len(out)
		out = append(out, q)
		for ; i > 0 && out[i-1].Load > q.Load; i-- {
			out[i] = out[i-1]
		}
		out[i] = q
	}
	return out
}
