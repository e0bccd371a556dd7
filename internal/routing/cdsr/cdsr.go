// Package cdsr implements DSR with intermediate-node replies enabled — the
// protocol feature (route caching) the paper's Section IV singles out as a
// blackhole vector: "attackers do not follow the protocol and reply early
// without cache lookup". Only that early-reply attacker is modeled: it
// answers every RREQ instantly with a fabricated one-hop claim to the
// destination, capturing the source's route before honest replies arrive.
// Honest intermediate nodes hold no cache and simply forward.
//
// The paper's MR forbids intermediate replies entirely, which is why it
// "provides certain level of resistance to blackhole attack as well"; the
// blackhole extension experiment quantifies exactly that contrast.
package cdsr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is DSR that admits intermediate replies. Unlike the flooding
// protocols, its Discovery.Routes holds the routes the SOURCE received
// (reply arrival order) — the set it would actually send data on.
type Protocol struct {
	// Malicious nodes reply to every RREQ instantly with a fabricated
	// route claiming the destination is their neighbor.
	Malicious map[topology.NodeID]bool
}

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "DSR+cache" }

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	run := &cdsrRun{proto: p, src: src, dst: dst, seen: make(map[topology.NodeID]bool)}
	net.SetAllHandlers(run)
	net.Schedule(0, func() {
		net.Broadcast(src, &routing.RREQ{ReqID: 1, Src: src, Dst: dst, Path: routing.Route{src}})
	})
	net.Run()
	d := &routing.Discovery{Protocol: p.Name(), Src: src, Dst: dst, Routes: run.received}
	d.TxTotal, d.RxTotal = net.TotalTraffic()
	return d
}

type cdsrRun struct {
	proto    *Protocol
	src, dst topology.NodeID
	seen     map[topology.NodeID]bool
	received []routing.Route // at the source, reply order
}

// Recv implements sim.Handler.
func (c *cdsrRun) Recv(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
	switch p := pkt.(type) {
	case *routing.RREQ:
		c.recvRREQ(net, self, from, p)
	case *routing.RREP:
		c.recvRREP(net, self, p)
	case *routing.Data:
		routing.RelayData(net, self, p)
	case *routing.ACK:
		routing.RelayACK(net, self, p)
	}
}

func (c *cdsrRun) recvRREQ(net *sim.Network, self, from topology.NodeID, q *routing.RREQ) {
	if self == c.src || q.Path.Contains(self) {
		return
	}
	switch {
	case self == c.dst:
		route := append(q.Path.Clone(), self)
		sendReply(net, route, len(route)-1)
		return

	case c.proto.Malicious[self]:
		// The paper's early-reply blackhole: claim the destination is one
		// hop away, no lookup, no forwarding. The fabricated link
		// (self,dst) does not exist; data sent on this route dies here.
		fake := append(append(q.Path.Clone(), self), c.dst)
		sendReply(net, fake, len(fake)-2)
		return
	}

	if c.seen[self] {
		return
	}
	c.seen[self] = true
	net.Broadcast(self, &routing.RREQ{ReqID: q.ReqID, Src: q.Src, Dst: q.Dst, Path: append(q.Path.Clone(), self)})
}

// sendReply starts an RREP from route[replier] back toward the source.
// replier is the index of the node answering the request: the destination
// for real replies, the attacker for fabricated ones. The hops below
// replier were traversed by the request, so the reverse unicasts are all
// adjacent; hops above replier are claims the replier makes (possibly
// fabricated) that the reply never touches.
func sendReply(net *sim.Network, route routing.Route, replier int) {
	if replier <= 0 || replier >= len(route) {
		return
	}
	net.Unicast(route[replier], route[replier-1],
		&routing.RREP{ReqID: 1, Route: route.Clone(), Pos: replier - 1})
}

func (c *cdsrRun) recvRREP(net *sim.Network, self topology.NodeID, p *routing.RREP) {
	if p.Route[p.Pos] != self {
		return
	}
	if p.Pos == 0 {
		// The source: this is a usable (or fabricated) route.
		c.received = append(c.received, p.Route)
		return
	}
	net.Unicast(self, p.Route[p.Pos-1], &routing.RREP{ReqID: p.ReqID, Route: p.Route, Pos: p.Pos - 1})
}
