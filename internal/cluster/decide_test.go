// The decision kernel alone: no service, no network, no clock.
package cluster

import (
	"reflect"
	"testing"
)

func TestDecide(t *testing.T) {
	none := Action{}
	loads := func(ls ...int) []PeerLoad {
		out := make([]PeerLoad, len(ls))
		for i, l := range ls {
			out[i] = PeerLoad{Peer: 10 + i, Load: l} // ids are the caller's, not positions
		}
		return out
	}
	cases := []struct {
		name     string
		self     int
		canSteal bool
		peers    []PeerLoad
		pol      Policy
		want     Action
	}{
		{"no peers", 9, true, nil, Policy{}, none},
		{"gap below default threshold", 3, true, loads(0), Policy{}, none},
		{"gap at default threshold sheds half", 4, true, loads(0), Policy{}, Action{Shed, 10, 2}},
		{"gap measured against the coldest", 9, true, loads(7, 3), Policy{}, Action{Shed, 11, 3}},
		{"half the gap under the batch cap", 7, true, loads(1), Policy{}, Action{Shed, 10, 3}},
		{"batch caps half the gap", 40, true, loads(0), Policy{}, Action{Shed, 10, 4}},
		{"explicit batch caps", 40, true, loads(0), Policy{Batch: 9}, Action{Shed, 10, 9}},
		{"explicit threshold", 2, true, loads(0), Policy{ForwardThreshold: 2}, Action{Shed, 10, 1}},
		{"a gap of one has no half", 1, true, loads(0), Policy{ForwardThreshold: 1}, none},
		{"coldest tie goes to the first", 8, true, loads(5, 2, 2), Policy{}, Action{Shed, 11, 3}},
		{"hottest tie goes to the first", 0, true, loads(1, 6, 6), Policy{}, Action{Steal, 11, 4}},
		{"idle steals a batch from the hottest", 0, true, loads(3, 9), Policy{Batch: 2}, Action{Steal, 11, 2}},
		{"victim below StealMinScore", 0, true, loads(1, 1), Policy{}, none},
		{"victim at StealMinScore", 0, true, loads(1, 2), Policy{}, Action{Steal, 11, 4}},
		{"explicit StealMinScore boundary", 0, true, loads(4), Policy{StealMinScore: 5}, none},
		{"idle but draining never steals", 0, false, loads(9), Policy{}, none},
		{"busy never steals", 1, true, loads(9), Policy{}, none},
		{"draining still sheds", 9, false, loads(0), Policy{}, Action{Shed, 10, 4}},
		{"thresholds out of reach", 50, true, loads(0), Policy{ForwardThreshold: 1 << 30, StealMinScore: 1 << 30}, none},
	}
	for _, c := range cases {
		got, ok := Decide(c.self, c.canSteal, c.peers, c.pol)
		if got != c.want || ok != (c.want != none) {
			t.Errorf("%s: Decide(%d, %v, %v, %+v) = %+v, %v; want %+v", c.name, c.self, c.canSteal, c.peers, c.pol, got, ok, c.want)
		}
	}
}

// TestDecideCallerFilters pins the contract of Decide's peers argument on
// the real node: a peer never heard from, one whose last exchange failed
// and one that is draining are left out by usablePeers, so the kernel
// cannot pick them however attractive their numbers are.
func TestDecideCallerFilters(t *testing.T) {
	n := NewNode(Config{Peers: []string{"unknown", "stale", "draining", "ok"}}, nil, nil)
	n.views[1] = peerView{report: LoadReport{Score: 0}, ok: false}
	n.views[2] = peerView{report: LoadReport{Score: 0, Draining: true}, ok: true}
	n.views[3] = peerView{report: LoadReport{Score: 5}, ok: true}
	if got, want := n.usablePeers(), []PeerLoad{{Peer: 3, Load: 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("usablePeers = %v, want %v", got, want)
	}
}

func TestStealGrant(t *testing.T) {
	cases := []struct {
		pol                  Policy
		reqMax, queued, want int
	}{
		{Policy{}, 0, 10, 4},         // no bound: the default batch
		{Policy{}, -3, 10, 4},        // nonsense bound: the batch
		{Policy{}, 9, 10, 4},         // above the batch: clamped
		{Policy{}, 2, 10, 2},         // within the batch: honoured
		{Policy{}, 4, 3, 3},          // never more than is queued
		{Policy{}, 4, 0, 0},          // nothing queued
		{Policy{Batch: 8}, 9, 10, 8}, // explicit batch
		{Policy{Batch: 8}, 8, 10, 8}, // at the batch
	}
	for _, c := range cases {
		if got := c.pol.StealGrant(c.reqMax, c.queued); got != c.want {
			t.Errorf("%+v.StealGrant(%d, %d) = %d, want %d", c.pol, c.reqMax, c.queued, got, c.want)
		}
	}
}

func TestMayHop(t *testing.T) {
	cases := []struct {
		pol  Policy
		hops int
		want bool
	}{
		{Policy{}, 0, true},
		{Policy{}, 2, true},
		{Policy{}, 3, false}, // at the default limit
		{Policy{}, 4, false},
		{Policy{MaxHops: 1}, 0, true},
		{Policy{MaxHops: 1}, 1, false},
	}
	for _, c := range cases {
		if got := c.pol.MayHop(c.hops); got != c.want {
			t.Errorf("%+v.MayHop(%d) = %v, want %v", c.pol, c.hops, got, c.want)
		}
	}
}

func TestColder(t *testing.T) {
	peers := []PeerLoad{{0, 5}, {1, 2}, {2, 7}, {3, 2}, {4, 0}, {5, 6}}
	got := Colder(6, peers)
	want := []PeerLoad{{4, 0}, {1, 2}, {3, 2}, {0, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Colder = %v, want %v", got, want)
	}
	if got := Colder(0, []PeerLoad{{0, 0}, {1, 3}}); len(got) != 0 {
		t.Fatalf("nobody is colder than idle, got %v", got)
	}
}

// TestKernelAllocatesNothing holds the kernel to its contract on the
// paper-sim path, where the Sim calls it once per node per tick.
func TestKernelAllocatesNothing(t *testing.T) {
	peers := []PeerLoad{{0, 5}, {1, 2}, {2, 7}}
	scratch := make([]PeerLoad, len(peers))
	pol := Policy{}
	if n := testing.AllocsPerRun(100, func() {
		Decide(9, true, peers, pol)
		pol.StealGrant(3, 7)
		pol.MayHop(2)
		copy(scratch, peers)
		Colder(6, scratch)
	}); n != 0 {
		t.Fatalf("kernel allocates %v times per call", n)
	}
}
