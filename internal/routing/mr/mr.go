// Package mr implements the paper's on-demand multi-path routing protocol —
// an SMR variant (Lee & Gerla) with a relaxed duplicate rule:
//
//	The intermediate node will forward the first received RREQ and the
//	duplicate RREQ that has not been forwarded by the node and whose hop
//	count is not larger than that of the first received RREQ.
//
// Unlike strict SMR, the incoming link of the duplicate is not considered,
// so MR may discover more routes. Strict SMR is available behind the
// IncomingLinkRule flag for the ablation benchmark.
package mr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is the multi-path routing protocol. The zero value is the
// paper's MR, replying along the 2 maximally disjoint collected routes.
type Protocol struct {
	// MaxForwards caps the total RREQ copies each intermediate node
	// forwards per request, modeling the MAC-level contention that keeps
	// the paper's observed overhead at "more than twice" DSR's rather than
	// letting grid braiding explode combinatorially. The zero value selects
	// DefaultMaxForwards; negative means unlimited (the literal unbounded
	// reading of the paper's rule, kept for the ablation benchmark).
	MaxForwards int
	// IncomingLinkRule enables strict SMR: a duplicate is forwarded only if
	// it arrived over a different link than the first copy.
	IncomingLinkRule bool
	// HopSlack is how many hops beyond the first-arriving route the
	// destination's collection admits — the "certain amount of time" design
	// parameter, expressed in hops so collection is deterministic. The zero
	// value selects DefaultHopSlack; use HopSlackStrict for shortest-only
	// collection and HopSlackNone to disable the filter.
	HopSlack int
	// SuppressReplies skips the RREP phase (analysis-only runs).
	SuppressReplies bool
	// Avoid excludes nodes from discovery (routing.FloodConfig.Avoid) —
	// the IDS's isolation list plugs in here.
	Avoid func(topology.NodeID) bool
	// Forge lets Byzantine nodes answer requests with fabricated replies
	// (routing.FloodConfig.Forge) — attack scenarios plug in here.
	Forge routing.ForgeFunc
}

// Defaults and sentinels for Protocol fields.
const (
	// DefaultMaxForwards is the per-node forward budget when
	// Protocol.MaxForwards is zero.
	DefaultMaxForwards = 6
	// DefaultHopSlack admits routes up to two hops longer than the first.
	DefaultHopSlack = 2
	// HopSlackStrict admits only routes as short as the first arrival.
	HopSlackStrict = -1
	// HopSlackNone disables the destination hop filter.
	HopSlackNone = -2
)

// Name implements routing.Protocol.
func (p *Protocol) Name() string {
	if p.IncomingLinkRule {
		return "SMR"
	}
	return "MR"
}

// Discover implements routing.Protocol.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	maxFwd := p.MaxForwards
	switch {
	case maxFwd == 0:
		maxFwd = DefaultMaxForwards
	case maxFwd < 0:
		maxFwd = 0 // unlimited
	}
	slack := DefaultHopSlack
	switch {
	case p.HopSlack > 0:
		slack = p.HopSlack
	case p.HopSlack == HopSlackStrict:
		slack = 0
	case p.HopSlack == HopSlackNone:
		slack = -1
	}
	return routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name:            p.Name(),
		Rule:            p.rule,
		MaxForwards:     maxFwd,
		Reply:           replyDisjoint,
		HopSlack:        slack,
		SuppressReplies: p.SuppressReplies,
		Avoid:           p.Avoid,
		Forge:           p.Forge,
	})
}

func (p *Protocol) rule(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool {
	if !st.Seen {
		return true // first copy is always forwarded
	}
	if q.Hops() > st.FirstHops {
		return false // longer than the first copy: drop
	}
	if p.IncomingLinkRule && from == st.FirstFrom {
		return false // strict SMR: must arrive over a different link
	}
	return true
}

// replyDisjoint is SMR's reply policy: the destination answers the 2
// maximally disjoint collected routes.
func replyDisjoint(routes []routing.Route) []routing.Route {
	return routing.SelectDisjoint(routes, 2)
}
