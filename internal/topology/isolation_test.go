package topology_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"samnet/internal/attack"
	"samnet/internal/geom"
	"samnet/internal/routing/mr"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// netState is everything a grid builder's result exposes, copied out.
type netState struct {
	Pos           []geom.Point
	Adj           [][]topology.NodeID
	Extra         []topology.Link
	Src, Dst      []topology.NodeID
	AttackerPairs [][2]topology.NodeID
}

func snapshot(net *topology.Network) netState {
	s := netState{
		Pos:           net.Topo.Positions(),
		Extra:         net.Topo.ExtraLinks(),
		Src:           append([]topology.NodeID(nil), net.SrcPool...),
		Dst:           append([]topology.NodeID(nil), net.DstPool...),
		AttackerPairs: append([][2]topology.NodeID(nil), net.AttackerPairs...),
	}
	for i := 0; i < net.Topo.N(); i++ {
		s.Adj = append(s.Adj, append([]topology.NodeID(nil), net.Topo.Neighbors(topology.NodeID(i))...))
	}
	return s
}

// TestGridPrototypeIsolation checks that Cluster and Uniform hand out
// independent networks: whatever a caller does to one result, a later call
// returns the pristine layout.
func TestGridPrototypeIsolation(t *testing.T) {
	builders := []struct {
		name  string
		build func() *topology.Network
	}{
		{"cluster", func() *topology.Network { return topology.Cluster(1, 2) }},
		{"uniform", func() *topology.Network { return topology.Uniform(6, 6, 1, 2) }},
	}
	mutations := []struct {
		name string
		do   func(net *topology.Network)
	}{
		{"tunnels", func(net *topology.Network) { attack.NewScenario(net, 2, attack.Forward) }},
		{"tunnels+remove", func(net *topology.Network) { attack.NewScenario(net, 2, attack.Forward).Teardown() }},
		{"chain", func(net *topology.Network) { attack.NewChainScenario(net, 3, 2, attack.Forward) }},
		{"tunnel+SetPos", func(net *topology.Network) {
			attack.NewScenario(net, 1, attack.Forward)
			net.Topo.SetPos(0, geom.Pt(100, 100))
			net.Topo.Freeze()
		}},
		{"AddNode", func(net *topology.Network) {
			net.Topo.AddNode(geom.Pt(0.5, 0.5))
			net.Topo.Freeze()
		}},
		{"pools", func(net *topology.Network) {
			net.SrcPool[0] = net.DstPool[0]
			net.DstPool = append(net.DstPool[:1], 0)
			net.AttackerPairs[0][0] = 7
		}},
	}
	for _, b := range builders {
		want := snapshot(b.build())
		for _, m := range mutations {
			m.do(b.build())
			if got := snapshot(b.build()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: mutating a result with %s changed a later call", b.name, m.name)
			}
		}
	}
}

// TestGridPrototypesParallel runs whole attack scenarios on concurrently
// built grids; under -race it checks that clones share nothing mutable.
func TestGridPrototypesParallel(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				net := topology.Cluster(1+i%2, 2)
				if g%2 == 1 {
					net = topology.Uniform(6, 6, 1+i%2, 2)
				}
				sc := attack.NewScenario(net, 1+i%2, attack.Forward)
				if span := net.TunnelSpan(0); span < 2 {
					errs <- fmt.Errorf("goroutine %d: tunnel span %d", g, span)
					return
				}
				s := sim.NewNetwork(net.Topo, sim.Config{Seed: uint64(g*100 + i + 1)})
				sc.Arm(s)
				d := (&mr.Protocol{}).Discover(s, net.SrcPool[0], net.DstPool[len(net.DstPool)-1])
				if len(d.Routes) == 0 {
					errs <- fmt.Errorf("goroutine %d: no routes", g)
					return
				}
				sc.Teardown()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
