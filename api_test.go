package samnet_test

import (
	"testing"

	"samnet"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	net := samnet.NewCluster(1, 1)
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]

	normal := samnet.DiscoverMR(net, src, dst, 1)
	if len(normal.Routes) == 0 {
		t.Fatal("no routes on clean network")
	}
	ns := samnet.Analyze(normal.Routes)

	sc := samnet.Attack(net, 1, samnet.BehaviorForward)
	defer sc.Teardown()
	attacked := samnet.DiscoverMR(net, src, dst, 1)
	as := samnet.Analyze(attacked.Routes)

	if as.PMax <= ns.PMax {
		t.Errorf("attack p_max %.3f should exceed normal %.3f", as.PMax, ns.PMax)
	}
	tunnel := sc.TunnelLinks()[0]
	if attacked.AffectedBy(tunnel) != 1 {
		t.Errorf("cluster affected = %v, want 1", attacked.AffectedBy(tunnel))
	}
	if as.Suspect != tunnel {
		t.Errorf("suspect %v != tunnel %v", as.Suspect, tunnel)
	}
}

func TestFacadeBuilders(t *testing.T) {
	if n := samnet.NewUniform(6, 6, 1, 2).Topo.N(); n != 36 {
		t.Errorf("uniform N = %d", n)
	}
	r := samnet.NewRandom(1, 7)
	if !r.Topo.Connected() {
		t.Error("random topology disconnected")
	}
	if len(r.AttackerPairs) != 1 {
		t.Error("wormhole pair missing")
	}
	// Same seed, same placement.
	r2 := samnet.NewRandom(1, 7)
	for i := 0; i < r.Topo.N(); i++ {
		if r.Topo.Pos(samnet.NodeID(i)) != r2.Topo.Pos(samnet.NodeID(i)) {
			t.Fatal("NewRandom not deterministic per seed")
		}
	}
}

func TestFacadeTrainDetect(t *testing.T) {
	net := samnet.NewCluster(1, 1)
	trainer := samnet.NewTrainer("facade")
	for seed := uint64(1); seed <= 15; seed++ {
		src := net.SrcPool[int(seed)%len(net.SrcPool)]
		dst := net.DstPool[int(3*seed)%len(net.DstPool)]
		trainer.ObserveRoutes(samnet.DiscoverMR(net, src, dst, seed).Routes)
	}
	profile, err := trainer.Profile()
	if err != nil {
		t.Fatal(err)
	}
	det := samnet.NewDetector(profile)

	sc := samnet.Attack(net, 1, samnet.BehaviorBlackhole)
	defer sc.Teardown()
	d := samnet.DiscoverMRUnderAttack(net, sc, net.SrcPool[0], net.DstPool[0], 99)
	v := det.Evaluate(samnet.Analyze(d.Routes))
	if v.Lambda > 0.7 {
		t.Errorf("lambda = %.3f; trained detector should find this suspicious at least", v.Lambda)
	}
}

func TestFacadeProbe(t *testing.T) {
	net := samnet.NewCluster(1, 1)
	sc := samnet.Attack(net, 1, samnet.BehaviorBlackhole)
	defer sc.Teardown()
	tunnel := sc.TunnelLinks()[0]
	d := samnet.DiscoverMRUnderAttack(net, sc, net.SrcPool[0], net.DstPool[0], 5)
	if len(d.Routes) == 0 {
		t.Fatal("no routes")
	}
	v := samnet.Probe(net, sc, tunnel, d.Routes, 6)
	if v.Probes == 0 || !v.Condemned {
		t.Errorf("probe through a blackhole wormhole must condemn it: %+v", v)
	}
	// Without the scenario armed, the same probes come back (tunnel still
	// exists as a link; the attackers just stop dropping).
	v2 := samnet.Probe(net, nil, tunnel, d.Routes, 6)
	if v2.Probes == 0 || v2.Condemned || v2.Likelihood != 0 {
		t.Errorf("probe without payload dropping should exonerate: %+v", v2)
	}
}

func TestFacadeDSRAndAvoiding(t *testing.T) {
	net := samnet.NewCluster(1, 1)
	src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
	d := samnet.DiscoverDSR(net, src, dst, 2)
	if len(d.Routes) == 0 {
		t.Fatal("DSR found nothing")
	}

	sc := samnet.Attack(net, 1, samnet.BehaviorForward)
	defer sc.Teardown()
	excluded := map[samnet.NodeID]bool{}
	for id := range sc.MaliciousNodes() {
		excluded[id] = true
	}
	clean := samnet.DiscoverMRAvoiding(net, excluded, src, dst, 3)
	for _, r := range clean.Routes {
		for id := range excluded {
			if r.Contains(id) {
				t.Errorf("route %v crosses isolated node %d", r, id)
			}
		}
	}
	if len(clean.Routes) == 0 {
		t.Error("isolation left no routes in a well-connected cluster")
	}
}
