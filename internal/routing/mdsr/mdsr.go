// Package mdsr implements Multipath DSR (Nasipuri & Das, IC3N 1999), the
// third multi-path protocol the paper's conclusion discusses. MDSR keeps
// DSR's forwarding untouched — intermediate nodes discard every duplicate
// RREQ — and obtains multiple routes purely at the destination, which
// replies only to copies that are link-disjoint from the primary (first-
// arriving) route. As the paper notes, MDSR therefore does NOT provide more
// candidate routes than DSR for statistical analysis; the extension
// experiment quantifies how much that costs SAM.
package mdsr

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// Protocol is MDSR route discovery. The zero value is ready to use.
type Protocol struct{}

// maxAlternates caps the disjoint alternate routes kept besides the primary.
const maxAlternates = 2

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "MDSR" }

// Discover implements routing.Protocol. It reuses the shared flooding
// framework with DSR's forward-once rule; the destination replies only to
// the primary route plus link-disjoint alternates, and Routes (with Times)
// is pruned to that same set.
func (p *Protocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	var keep []int
	d := routing.RunDiscovery(net, src, dst, routing.FloodConfig{
		Name:     p.Name(),
		Rule:     func(self, from topology.NodeID, q *routing.RREQ, st *routing.NodeState) bool { return !st.Seen },
		HopSlack: -1, // MDSR's destination sees every surviving copy
		Reply: func(routes []routing.Route) []routing.Route {
			keep = pruneDisjoint(routes, maxAlternates)
			return pick(routes, keep)
		},
	})
	d.Routes, d.Times = pick(d.Routes, keep), pick(d.Times, keep)
	return d
}

// pruneDisjoint returns the indices of the routes MDSR's destination keeps:
// routes[0] (the primary) and up to maxAlt further routes that share no
// link with any retained route, in order.
func pruneDisjoint(routes []routing.Route, maxAlt int) []int {
	if len(routes) == 0 {
		return nil
	}
	kept := []int{0}
	for i, c := range routes[1:] {
		if len(kept)-1 == maxAlt {
			break
		}
		disjoint := true
		for _, k := range kept {
			if c.SharedLinks(routes[k]) > 0 {
				disjoint = false
				break
			}
		}
		if disjoint {
			kept = append(kept, i+1)
		}
	}
	return kept
}

// pick returns xs[i] for each i in idx, or nil when idx is empty.
func pick[T any](xs []T, idx []int) []T {
	if len(idx) == 0 {
		return nil
	}
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}
