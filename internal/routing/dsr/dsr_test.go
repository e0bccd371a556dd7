package dsr

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/geom"
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func discover(t *testing.T, p routing.Protocol, net *topology.Network, seed uint64) *routing.Discovery {
	t.Helper()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	return p.Discover(s, src, dst)
}

func TestDSREachNodeForwardsOnce(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	(&Protocol{SuppressReplies: true}).Discover(s, src, dst)
	for i := 0; i < net.Topo.N(); i++ {
		id := topology.NodeID(i)
		if id == src {
			continue
		}
		if got := s.TxCount(id); got > 1 {
			t.Errorf("node %d transmitted %d times; DSR forwards each request once", id, got)
		}
	}
}

func TestDSRRoutesValid(t *testing.T) {
	net := topology.Cluster(1, 0)
	d := discover(t, &Protocol{}, net, 2)
	if len(d.Routes) == 0 {
		t.Fatal("no routes found")
	}
	for _, r := range d.Routes {
		if !r.Simple() || !r.Valid(net.Topo) {
			t.Errorf("bad route %v", r)
		}
	}
}

func TestDSRRepliesToEveryCollectedRoute(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	d := discover(t, &Protocol{}, net, 3)
	if len(d.Replies) != len(d.Routes) {
		t.Errorf("DSR replied to %d of %d routes", len(d.Replies), len(d.Routes))
	}
}

func TestDSRWormholeAttractsAllClusterRoutes(t *testing.T) {
	net := topology.Cluster(1, 1)
	sc := attack.NewScenario(net, 1, attack.Forward)
	defer sc.Teardown()
	d := discover(t, &Protocol{}, net, 1)
	if got := d.AffectedBy(sc.TunnelLinks()[0]); got != 1.0 {
		t.Errorf("cluster DSR affected = %v, want 1.0 (Table I)", got)
	}
}

func TestDSRName(t *testing.T) {
	if (&Protocol{}).Name() != "DSR" {
		t.Error("name")
	}
}

func TestDSRRouteCountBoundedByDegree(t *testing.T) {
	// Every DSR route arrives via a distinct last hop (each neighbor of the
	// destination forwards at most once), so |R| <= deg(dst).
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 4})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Routes) > net.Topo.Degree(dst) {
		t.Errorf("%d routes exceed dst degree %d", len(d.Routes), net.Topo.Degree(dst))
	}
}

// TestDSRHopSlackIsTwo pins DSR's destination filter at two hops of slack:
// on a ring, the copy that goes the long way round reaches the destination
// too, and only a filter would drop it.
func TestDSRHopSlackIsTwo(t *testing.T) {
	ring := func(n int) *topology.Topology {
		// n nodes on the perimeter of a square, unit spacing: a cycle.
		topo := topology.New("ring", 1.001)
		side := n / 4
		for i := 0; i < n; i++ {
			x, y := i, 0
			switch {
			case i >= 3*side:
				x, y = 0, 4*side-i
			case i >= 2*side:
				x, y = 3*side-i, side
			case i >= side:
				x, y = side, i-side
			}
			topo.AddNode(geom.Pt(float64(x), float64(y)))
		}
		return topo
	}
	for _, c := range []struct {
		n, want int // ring size; routes DSR keeps from node 0 to node 1
	}{
		{4, 2}, // 1 hop direct, 3 hops round: within the slack
		{8, 1}, // 7 hops round: dropped
	} {
		topo := ring(c.n)
		d := (&Protocol{}).Discover(sim.NewNetwork(topo, sim.Config{Seed: 1}), 0, 1)
		if len(d.Routes) != c.want {
			t.Errorf("ring of %d: DSR kept %d routes %v, want %d", c.n, len(d.Routes), d.Routes, c.want)
		}
	}
}
