// Package routing defines the protocol-independent vocabulary of on-demand
// route discovery: routes, RREQ/RREP packets, and the Discovery record that
// a protocol run produces. The dsr and mr subpackages implement the two
// protocols the paper compares; aomdv and mdsr implement the future-work
// protocols from its conclusion.
package routing

import (
	"fmt"
	"strings"

	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Route is an ordered node sequence from source to destination, both
// inclusive.
type Route []topology.NodeID

// Clone returns a copy of r.
func (r Route) Clone() Route {
	out := make(Route, len(r))
	copy(out, r)
	return out
}

// Hops returns the hop count (number of links) of r.
func (r Route) Hops() int {
	if len(r) == 0 {
		return 0
	}
	return len(r) - 1
}

// Links returns the undirected links of r in order.
func (r Route) Links() []topology.Link {
	if len(r) < 2 {
		return nil
	}
	out := make([]topology.Link, 0, len(r)-1)
	for i := 0; i+1 < len(r); i++ {
		out = append(out, topology.MkLink(r[i], r[i+1]))
	}
	return out
}

// Contains reports whether id appears in r.
func (r Route) Contains(id topology.NodeID) bool {
	for _, n := range r {
		if n == id {
			return true
		}
	}
	return false
}

// ContainsLink reports whether r traverses l (in either direction).
func (r Route) ContainsLink(l topology.Link) bool {
	for i := 0; i+1 < len(r); i++ {
		if topology.MkLink(r[i], r[i+1]) == l {
			return true
		}
	}
	return false
}

// Equal reports whether r and s visit the same nodes in the same order.
func (r Route) Equal(s Route) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// Simple reports whether r has no repeated node.
func (r Route) Simple() bool {
	seen := make(map[topology.NodeID]bool, len(r))
	for _, n := range r {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

// Valid reports whether every consecutive pair of r is adjacent in t.
func (r Route) Valid(t *topology.Topology) bool {
	for i := 0; i+1 < len(r); i++ {
		if !t.Adjacent(r[i], r[i+1]) {
			return false
		}
	}
	return true
}

// SharedLinks returns how many links of s (counted with multiplicity) r
// also traverses, in either direction. Routes are a few hops long, so the
// pairwise scan beats building a link set.
func (r Route) SharedLinks(s Route) int {
	n := 0
	for i := 0; i+1 < len(s); i++ {
		if r.ContainsLink(topology.MkLink(s[i], s[i+1])) {
			n++
		}
	}
	return n
}

// String implements fmt.Stringer, e.g. "0>5>11".
func (r Route) String() string {
	parts := make([]string, len(r))
	for i, n := range r {
		parts[i] = fmt.Sprint(int(n))
	}
	return strings.Join(parts, ">")
}

// RREQ is a route request flooded from Src toward Dst. Path accumulates the
// nodes traversed so far, Src first; its length minus one is the hop count
// the paper's forwarding rules compare.
//
// Requests issued by the flood framework (RunDiscovery) do not carry an
// explicit Path: they reference a per-discovery path arena that shares
// prefixes between copies, and Path stays nil. Use Hops and PathContains —
// which understand both representations — rather than reading Path directly
// when a request may originate from the framework. Protocols that flood
// their own requests (cdsr, aomdv) still populate Path explicitly.
type RREQ struct {
	ReqID uint64
	Src   topology.NodeID
	Dst   topology.NodeID
	Path  Route

	arena *pathArena
	ref   int32
}

// Hops returns the hop count of the request so far.
func (q *RREQ) Hops() int {
	if q.arena != nil {
		return int(q.arena.hops[q.ref])
	}
	return q.Path.Hops()
}

// PathContains reports whether the request's path so far traverses id.
func (q *RREQ) PathContains(id topology.NodeID) bool {
	if q.arena != nil {
		return q.arena.contains(q.ref, id)
	}
	return q.Path.Contains(id)
}

// RREP carries a discovered route back toward the source. Pos is the index
// (into Route) of the node currently holding the reply; it decreases as the
// reply travels src-ward.
type RREP struct {
	ReqID uint64
	Route Route
	Pos   int
}

// PayloadPacket marks packet types that carry application payload rather
// than routing control. Attack drop policies key on this marker: wormhole
// attackers relay control traffic (to stay attractive) while destroying
// payload, so any packet an attacker may legitimately destroy — Data, ACK,
// and the verify package's challenge/proof probes — implements it.
type PayloadPacket interface {
	IsPayload()
}

// Data is a payload packet sent along a fixed source route — the probe
// packets of SAM's step 2 use it. ACK acknowledges one back to the source.
type Data struct {
	SeqNo uint64
	Route Route
	Pos   int
}

// IsPayload implements PayloadPacket.
func (*Data) IsPayload() {}

// ACK acknowledges a Data packet end-to-end along the reversed route.
type ACK struct {
	SeqNo uint64
	Route Route // the original forward route; the ACK walks it backwards
	Pos   int
}

// IsPayload implements PayloadPacket.
func (*ACK) IsPayload() {}

// Discovery is the outcome of one route discovery: the route set R the
// destination observed, plus bookkeeping.
type Discovery struct {
	Protocol string
	Src, Dst topology.NodeID

	// Routes is R — each distinct route the destination observed, in
	// arrival order. SAM's statistics are computed over this set.
	Routes []Route

	// Times holds the virtual arrival time of each collected route's RREQ
	// copy at the destination, parallel to Routes. Dividing by the route's
	// hop count gives the per-hop latency a delay-consistency detector
	// compares against the nominal hop delay.
	Times []sim.Time

	// Replies are the routes actually returned to the source (a subset of
	// Routes chosen by the protocol's reply policy — or, under a route-reply
	// forgery attack, fabricated routes that never reached the destination).
	Replies []Route

	// ReplyTimes holds the virtual time each reply reached the source,
	// parallel to Replies. Honest replies travel back only after the flood
	// completes (FloodEnd); forged replies are injected mid-flood and arrive
	// implausibly early.
	ReplyTimes []sim.Time

	// FloodEnd is the virtual time the request flood died out — the moment
	// the destination starts answering. Reply travel time is measured from
	// it.
	FloodEnd sim.Time

	// TxTotal and RxTotal are the total transmissions/receptions at all
	// nodes during discovery, including replies — Table II's overhead.
	TxTotal, RxTotal int64
}

// Overhead returns Tx+Rx, the paper's single overhead number per run.
func (d *Discovery) Overhead() int64 { return d.TxTotal + d.RxTotal }

// AffectedBy reports the fraction of discovered routes containing the given
// link (the tunnel), the paper's Table I metric. It returns 0 when no routes
// were found.
func (d *Discovery) AffectedBy(l topology.Link) float64 {
	if len(d.Routes) == 0 {
		return 0
	}
	n := 0
	for _, r := range d.Routes {
		if r.ContainsLink(l) {
			n++
		}
	}
	return float64(n) / float64(len(d.Routes))
}

// Protocol is an on-demand route-discovery protocol. Discover installs its
// handlers on net, floods a request from src to dst, runs the simulation to
// completion and returns the resulting Discovery. Implementations must be
// usable for several sequential discoveries on fresh networks; they must not
// retain references to net afterwards.
type Protocol interface {
	Name() string
	Discover(net *sim.Network, src, dst topology.NodeID) *Discovery
}

// SelectDisjoint greedily picks up to max routes from candidates, starting
// with the first (fastest) route and then repeatedly choosing the candidate
// sharing the fewest links with those already picked (ties: fewer hops, then
// earlier arrival). This is the "maximally disjoint" reply policy of SMR.
func SelectDisjoint(candidates []Route, max int) []Route {
	if max <= 0 || len(candidates) == 0 {
		return nil
	}
	picked := make([]Route, 1, min(max, len(candidates)))
	picked[0] = candidates[0]
	used := make([]bool, len(candidates))
	used[0] = true
	for len(picked) < max && len(picked) < len(candidates) {
		best, bestShared, bestHops := -1, int(^uint(0)>>1), int(^uint(0)>>1)
		for i, c := range candidates {
			if used[i] {
				continue
			}
			shared := 0
			for _, p := range picked {
				shared += c.SharedLinks(p)
			}
			if shared < bestShared || (shared == bestShared && c.Hops() < bestHops) {
				best, bestShared, bestHops = i, shared, c.Hops()
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		picked = append(picked, candidates[best])
	}
	return picked
}
