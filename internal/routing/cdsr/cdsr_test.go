package cdsr

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

func TestPlainDiscoveryReachesSource(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 0)
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 1})
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := (&Protocol{}).Discover(s, src, dst)
	if len(d.Routes) == 0 {
		t.Fatal("no replies reached the source")
	}
	for _, r := range d.Routes {
		if r[0] != src || r[len(r)-1] != dst {
			t.Errorf("bad endpoints: %v", r)
		}
		if !r.Valid(net.Topo) {
			t.Errorf("honest discovery produced an invalid route: %v", r)
		}
	}
}

func TestBlackholeCapturesFirstRoute(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 1)
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	mal := net.Attackers()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 3})
	d := (&Protocol{Malicious: mal}).Discover(s, src, dst)
	if len(d.Routes) == 0 {
		t.Fatal("no replies")
	}
	first := d.Routes[0]
	if first.Valid(net.Topo) {
		t.Skipf("first reply %v is honest (attacker too far for this pair)", first)
	}
	// The fabricated route ends attacker->dst with a non-existent link.
	last := first[len(first)-2]
	if !mal[last] {
		t.Errorf("invalid route's penultimate node %d is not an attacker: %v", last, first)
	}
}

func TestBlackholeProbeFailsOnFabricatedRoute(t *testing.T) {
	// SAM's step-2 probe catches the fabricated route: the data packet dies
	// at the attacker (it cannot forward over a link that does not exist),
	// so no ACK returns — the paper's point that the test step "may help to
	// detect another type of DoS attack".
	net := topology.Uniform(6, 6, 1, 1)
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	mal := net.Attackers()
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: 4})
	d := (&Protocol{Malicious: mal}).Discover(s, src, dst)

	var fake routing.Route
	for _, r := range d.Routes {
		if !r.Valid(net.Topo) {
			fake = r
			break
		}
	}
	if fake == nil {
		t.Skip("no fabricated route captured on this seed")
	}
	probeNet := sim.NewNetwork(net.Topo, sim.Config{Seed: 5})
	// Drop data at malicious nodes (they cannot relay over the fake link
	// anyway; dropping models their blackhole behaviour and keeps the
	// simulator's adjacency invariant intact).
	probeNet.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
		switch pkt.(type) {
		case *routing.Data, *routing.ACK:
			return mal[to]
		}
		return false
	})
	res := routing.ProbeRoutes(probeNet, []routing.Route{fake})
	if res[0].Acked {
		t.Error("probe over a fabricated blackhole route must not be acked")
	}
}

func TestName(t *testing.T) {
	if (&Protocol{}).Name() != "DSR+cache" {
		t.Error("name")
	}
}
