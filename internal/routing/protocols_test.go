package routing_test

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/aomdv"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mdsr"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// TestDiscoveryTimesParallelRoutes holds every flooding protocol to the
// Discovery contract on the attacked cluster: Times has one arrival time
// per route, in arrival order.
func TestDiscoveryTimesParallelRoutes(t *testing.T) {
	for _, p := range []routing.Protocol{&mr.Protocol{}, &dsr.Protocol{}, &mdsr.Protocol{}, &aomdv.Protocol{}} {
		t.Run(p.Name(), func(t *testing.T) {
			net := topology.Cluster(1, 1)
			sc := attack.NewScenario(net, 1, attack.Forward)
			defer sc.Teardown()
			for seed := uint64(1); seed <= 5; seed++ {
				src, dst := net.SrcPool[0], net.DstPool[len(net.DstPool)-1]
				d := p.Discover(sim.NewNetwork(net.Topo, sim.Config{Seed: seed}), src, dst)
				if len(d.Routes) == 0 {
					t.Fatalf("seed %d: no routes", seed)
				}
				if len(d.Times) != len(d.Routes) {
					t.Fatalf("seed %d: %d times for %d routes", seed, len(d.Times), len(d.Routes))
				}
				for i := 1; i < len(d.Times); i++ {
					if d.Times[i] < d.Times[i-1] {
						t.Errorf("seed %d: time %d (%v) before time %d (%v)", seed, i, d.Times[i], i-1, d.Times[i-1])
					}
				}
			}
		})
	}
}
