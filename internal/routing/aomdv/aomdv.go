// Package aomdv implements a simplified Ad hoc On-demand Multipath Distance
// Vector protocol (Marina & Das, ICNP 2001) — one of the multi-path
// protocols the paper's conclusion earmarks for future SAM evaluation.
//
// Unlike the source-routed MR/DSR family, AOMDV is distance-vector: nodes
// keep multiple loop-free reverse next hops toward the request's source,
// established during RREQ flooding with the "advertised hop count" rule —
// an alternate reverse path is accepted only if its hop count does not
// exceed the hop count the node already advertised for that source, which
// bounds path inflation and preserves loop freedom (every stored reverse
// path came from a simple RREQ traversal, so following next hops strictly
// decreases the distance to the source). The destination answers RREQ
// copies that arrived with distinct (first hop, last hop) pairs, a
// link-disjointness heuristic.
//
// RREQs carry the traversed path for measurement only (SAM analyzes route
// link sets); the protocol's forwarding decisions use just (hop count,
// incoming neighbor), as real AOMDV does.
package aomdv

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// ReverseEntry is one loop-free reverse path toward the request source.
type ReverseEntry struct {
	NextHop topology.NodeID
	Hops    int
}

// Table is one node's multipath reverse-route state for one request.
type Table struct {
	// Entries are the accepted reverse paths, in acceptance order.
	Entries []ReverseEntry
	// Advertised is the advertised hop count: the maximum hop count over
	// accepted entries, fixed at first acceptance per AOMDV's loop-freedom
	// rule (it never decreases within one request).
	Advertised int
}

// Accept applies AOMDV's rule: the first path is always accepted and fixes
// the advertised hop count; alternates are accepted only if their hop count
// does not exceed it (the advertised bound the node already announced when
// rebroadcasting — accepting a longer path could advertise a distance the
// node cannot honor, the loop risk AOMDV's rule exists to prevent) and the
// next hop is new. It reports whether the entry was added.
func (t *Table) Accept(next topology.NodeID, hops int) bool {
	if len(t.Entries) == 0 {
		t.Entries = append(t.Entries, ReverseEntry{NextHop: next, Hops: hops})
		t.Advertised = hops
		return true
	}
	if hops > t.Advertised {
		return false // longer than the advertised bound: loop risk
	}
	for _, e := range t.Entries {
		if e.NextHop == next {
			return false // already have a path via this neighbor
		}
	}
	t.Entries = append(t.Entries, ReverseEntry{NextHop: next, Hops: hops})
	return true
}

// Best returns the lowest-hop entry (ties: insertion order).
func (t *Table) Best() (ReverseEntry, bool) {
	if len(t.Entries) == 0 {
		return ReverseEntry{}, false
	}
	best := t.Entries[0]
	for _, e := range t.Entries[1:] {
		if e.Hops < best.Hops {
			best = e
		}
	}
	return best, true
}

// Protocol is the AOMDV discovery protocol.
type Protocol struct {
	// SinglePath degrades the protocol to plain AODV — one reverse entry
	// per node, one route at the destination — the single-path counterpart
	// the paper names next to DSR. Used by the protocols experiment.
	SinglePath bool
}

// maxRoutes caps the destination's link-disjoint replies.
const maxRoutes = 3

// Name implements routing.Protocol.
func (p *Protocol) Name() string {
	if p.SinglePath {
		return "AODV"
	}
	return "AOMDV"
}

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	d, _ := p.discover(net, src, dst)
	return d
}

// discover runs one discovery and also returns the per-node reverse-route
// tables it built, which the loop-freedom test inspects.
func (p *Protocol) discover(net *sim.Network, src, dst topology.NodeID) (*routing.Discovery, map[topology.NodeID]*Table) {
	run := &aomdvRun{
		proto:     p,
		src:       src,
		dst:       dst,
		maxRoutes: maxRoutes,
		tables:    make(map[topology.NodeID]*Table),
		seenPair:  make(map[[2]topology.NodeID]bool),
	}
	if p.SinglePath {
		run.maxRoutes = 1
	}
	net.SetAllHandlers(run)
	net.Schedule(0, func() {
		net.Broadcast(src, &routing.RREQ{ReqID: 1, Src: src, Dst: dst, Path: routing.Route{src}})
	})
	net.Run()

	d := &routing.Discovery{Protocol: p.Name(), Src: src, Dst: dst, Routes: run.routes, Times: run.arrivalTimes}
	for _, r := range run.routes {
		r := r
		net.Schedule(0, func() { run.sendRREP(net, r) })
	}
	net.Run()
	d.Replies = run.replies
	d.TxTotal, d.RxTotal = net.TotalTraffic()
	return d, run.tables
}

type aomdvRun struct {
	proto     *Protocol
	src, dst  topology.NodeID
	maxRoutes int

	tables       map[topology.NodeID]*Table
	routes       []routing.Route
	arrivalTimes []sim.Time
	seenPair     map[[2]topology.NodeID]bool
	replies      []routing.Route
}

// Recv implements sim.Handler.
func (a *aomdvRun) Recv(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
	switch p := pkt.(type) {
	case *routing.RREQ:
		a.recvRREQ(net, self, from, p)
	case *routing.RREP:
		a.recvRREP(net, self, p)
	case *routing.Data:
		routing.RelayData(net, self, p)
	case *routing.ACK:
		routing.RelayACK(net, self, p)
	}
}

func (a *aomdvRun) recvRREQ(net *sim.Network, self, from topology.NodeID, q *routing.RREQ) {
	if self == a.src || q.Path.Contains(self) {
		return
	}
	if self == a.dst {
		a.acceptAtDst(net, q)
		return
	}
	t := a.tables[self]
	if t == nil {
		t = &Table{}
		a.tables[self] = t
	}
	first := len(t.Entries) == 0
	// Record the reverse path whether or not we forward: alternates build
	// the multipath table (plain AODV keeps only the first).
	if first || !a.proto.SinglePath {
		t.Accept(from, q.Hops()+1)
	}
	if !first {
		return // AOMDV forwards only the first copy, like AODV
	}
	fwd := &routing.RREQ{ReqID: q.ReqID, Src: q.Src, Dst: q.Dst, Path: append(q.Path.Clone(), self)}
	net.Broadcast(self, fwd)
}

func (a *aomdvRun) acceptAtDst(net *sim.Network, q *routing.RREQ) {
	route := append(q.Path.Clone(), a.dst)
	if len(route) < 2 || len(a.routes) >= a.maxRoutes {
		return
	}
	firstHop := route[1]
	lastHop := route[len(route)-2]
	key := [2]topology.NodeID{firstHop, lastHop}
	if a.seenPair[key] {
		return // not link-disjoint enough: same entry and exit
	}
	a.seenPair[key] = true
	a.routes = append(a.routes, route)
	a.arrivalTimes = append(a.arrivalTimes, net.Now())
}

// sendRREP routes a reply toward the source hop-by-hop along reverse
// entries (distance-vector forwarding, not source routing). The RREP reuses
// the discovered route only to identify itself; each relay picks its own
// reverse next hop.
func (a *aomdvRun) sendRREP(net *sim.Network, route routing.Route) {
	last := route[len(route)-2]
	net.Unicast(a.dst, last, &routing.RREP{ReqID: 1, Route: route.Clone(), Pos: -1})
}

func (a *aomdvRun) recvRREP(net *sim.Network, self topology.NodeID, p *routing.RREP) {
	if self == a.src {
		a.replies = append(a.replies, p.Route)
		return
	}
	t := a.tables[self]
	if t == nil {
		return // no reverse state: reply dies (counts as route failure)
	}
	best, ok := t.Best()
	if !ok {
		return
	}
	net.Unicast(self, best.NextHop, &routing.RREP{ReqID: p.ReqID, Route: p.Route, Pos: -1})
}
