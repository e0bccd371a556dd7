package topology

import (
	"math/rand/v2"
	"testing"
)

func TestClusterLayout(t *testing.T) {
	net := Cluster(1, 1)
	topo := net.Topo
	if topo.N() != 42 {
		t.Fatalf("cluster has %d nodes, want 42 (16+10+16)", topo.N())
	}
	if !topo.Connected() {
		t.Fatal("cluster topology must be connected")
	}
	if len(net.SrcPool) != 15 || len(net.DstPool) != 15 {
		// 16 per cluster minus the claimed attacker.
		t.Errorf("pools = %d/%d, want 15/15", len(net.SrcPool), len(net.DstPool))
	}
	if len(net.AttackerPairs) != 1 {
		t.Fatalf("attacker pairs = %d", len(net.AttackerPairs))
	}
}

func TestClusterTunnelSpanIsLong(t *testing.T) {
	net := Cluster(1, 1)
	// The paper's "long attack link": the tunnel shortcuts on the order of
	// 10 hops at 1-tier.
	if span := net.TunnelSpan(0); span < 8 || span > 11 {
		t.Errorf("cluster tunnel span = %d, want ~9-10", span)
	}
}

func TestClusterTiers(t *testing.T) {
	n1 := Cluster(1, 0)
	n2 := Cluster(2, 0)
	d1 := n1.Topo.Degree(0)
	d2 := n2.Topo.Degree(0)
	if d2 <= d1 {
		t.Errorf("2-tier degree (%d) should exceed 1-tier (%d)", d2, d1)
	}
	if n2.Topo.Diameter() >= n1.Topo.Diameter() {
		t.Error("2-tier diameter should shrink")
	}
}

func TestClusterAttackersExcludedFromPools(t *testing.T) {
	net := Cluster(1, 2)
	attackers := net.Attackers()
	if len(attackers) != 4 {
		t.Fatalf("attackers = %d, want 4", len(attackers))
	}
	for _, id := range append(append([]NodeID{}, net.SrcPool...), net.DstPool...) {
		if attackers[id] {
			t.Errorf("attacker %d found in a pool", id)
		}
	}
}

func TestClusterTunnelDominatesEveryPair(t *testing.T) {
	// The design requirement behind Table I's 100%: for every (src,dst)
	// pair, routing via the tunnel is strictly shorter than any normal
	// path.
	net := Cluster(1, 1)
	a1, a2 := net.AttackerPairs[0][0], net.AttackerPairs[0][1]
	normal := make(map[NodeID][]int) // distances without tunnel
	for _, s := range net.SrcPool {
		normal[s] = net.Topo.BFSDist(s, nil)
	}
	dA1 := net.Topo.BFSDist(a1, nil)
	dA2 := net.Topo.BFSDist(a2, nil)
	for _, s := range net.SrcPool {
		for _, d := range net.DstPool {
			direct := normal[s][d]
			viaTunnel := dA1[s] + 1 + dA2[d]
			if viaTunnel >= direct {
				t.Errorf("tunnel does not win for %d->%d: %d vs %d", s, d, viaTunnel, direct)
			}
		}
	}
}

func TestUniformLayout(t *testing.T) {
	net := Uniform(6, 6, 1, 1)
	if net.Topo.N() != 36 {
		t.Fatalf("6x6 grid has %d nodes", net.Topo.N())
	}
	if !net.Topo.Connected() {
		t.Fatal("grid must be connected")
	}
	// Interior grid node at 1-tier has exactly 4 neighbors.
	var interior NodeID = None
	for i := 0; i < net.Topo.N(); i++ {
		p := net.Topo.Pos(NodeID(i))
		if p.X == 2 && p.Y == 2 {
			interior = NodeID(i)
		}
	}
	if interior == None {
		t.Fatal("no node at (2,2)")
	}
	if got := net.Topo.Degree(interior); got != 4 {
		t.Errorf("interior degree = %d, want 4", got)
	}
}

func TestUniformTunnelSpansMatchPaper(t *testing.T) {
	// Paper: 6-hop attack link in the 6x6 grid, 10-hop in the 10x6 grid.
	if span := Uniform(6, 6, 1, 1).TunnelSpan(0); span != 6 {
		t.Errorf("6x6 tunnel span = %d, want 6", span)
	}
	if span := Uniform(10, 6, 1, 1).TunnelSpan(0); span != 10 {
		t.Errorf("10x6 tunnel span = %d, want 10", span)
	}
}

func TestUniformPools(t *testing.T) {
	net := Uniform(6, 6, 1, 0)
	if len(net.SrcPool) != 12 || len(net.DstPool) != 12 {
		t.Fatalf("pools = %d/%d, want 12/12", len(net.SrcPool), len(net.DstPool))
	}
	for _, id := range net.SrcPool {
		if net.Topo.Pos(id).X >= 2 {
			t.Errorf("source %d not on the left side", id)
		}
	}
	for _, id := range net.DstPool {
		if net.Topo.Pos(id).X < 4 {
			t.Errorf("destination %d not on the right side", id)
		}
	}
}

func TestUniformRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { Uniform(2, 6, 1, 0) },
		func() { Uniform(6, 6, 0, 0) },
		func() { Cluster(0, 0) },
		func() { Cluster(1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	net := Random(RandomConfig{Wormholes: 1}, rng)
	if net.Topo.N() != 60 {
		t.Fatalf("random N = %d, want 60", net.Topo.N())
	}
	if !net.Topo.Connected() {
		t.Fatal("random topology must be connected")
	}
	if len(net.SrcPool) == 0 || len(net.DstPool) == 0 {
		t.Fatal("pools must be non-empty")
	}
	if len(net.AttackerPairs) != 1 {
		t.Fatal("wanted one attacker pair")
	}
	side := 15.0
	a1 := net.Topo.Pos(net.AttackerPairs[0][0])
	a2 := net.Topo.Pos(net.AttackerPairs[0][1])
	if a1.X >= a2.X {
		t.Errorf("attacker 0 (%v) should be left of attacker 1 (%v)", a1, a2)
	}
	for _, id := range net.SrcPool {
		if net.Topo.Pos(id).X >= side/4 {
			t.Errorf("source %v outside left quarter", net.Topo.Pos(id))
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Random(RandomConfig{}, rand.New(rand.NewPCG(9, 9)))
	b := Random(RandomConfig{}, rand.New(rand.NewPCG(9, 9)))
	if a.Topo.N() != b.Topo.N() {
		t.Fatal("node counts differ")
	}
	for i := 0; i < a.Topo.N(); i++ {
		if a.Topo.Pos(NodeID(i)) != b.Topo.Pos(NodeID(i)) {
			t.Fatalf("node %d differs across identical seeds", i)
		}
	}
}

func TestRandomImpossiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unconnectable config")
		}
	}()
	Random(RandomConfig{N: 10, Side: 100, Radius: 1, MaxTries: 5}, rand.New(rand.NewPCG(1, 1)))
}

func TestPickPairNeverPicksAttacker(t *testing.T) {
	net := Cluster(1, 2)
	attackers := net.Attackers()
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 200; i++ {
		s, d := net.PickPair(rng)
		if attackers[s] || attackers[d] {
			t.Fatal("picked an attacker as src/dst")
		}
		if s == d {
			t.Fatal("src == dst")
		}
	}
}

func TestTunnelSpanRestoresTunnels(t *testing.T) {
	net := Cluster(1, 1)
	p := net.AttackerPairs[0]
	net.Topo.AddExtraLink(p[0], p[1])
	span := net.TunnelSpan(0)
	if span < 2 {
		t.Fatalf("span = %d", span)
	}
	if !net.Topo.HasExtraLink(p[0], p[1]) {
		t.Error("TunnelSpan must restore the tunnel afterwards")
	}
}

func TestKTierNeighborhoodMatchesPaperDefinition(t *testing.T) {
	// The paper defines a k-tier system as "each node can communicate with
	// its neighbors up to k hops away", where hops are 1-tier grid hops.
	// Verify: the k-tier neighborhood of an interior node is exactly the
	// set of nodes within 1-tier hop distance <= k.
	base := Uniform(7, 7, 1, 0)
	for _, k := range []int{1, 2} {
		tiered := Uniform(7, 7, k, 0)
		var center NodeID = None
		for i := 0; i < base.Topo.N(); i++ {
			p := base.Topo.Pos(NodeID(i))
			if p.X == 3 && p.Y == 3 {
				center = NodeID(i)
			}
		}
		if center == None {
			t.Fatal("no center node")
		}
		oneHop := base.Topo.BFSDist(center, nil)
		want := map[NodeID]bool{}
		for i, d := range oneHop {
			if d >= 1 && d <= k {
				want[NodeID(i)] = true
			}
		}
		got := map[NodeID]bool{}
		for _, nb := range tiered.Topo.Neighbors(center) {
			got[nb] = true
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d neighbors, want %d", k, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Errorf("k=%d: node %d (1-tier dist %d) missing from neighborhood", k, id, oneHop[id])
			}
		}
	}
}

var netSink *Network

// BenchmarkClusterBuild measures the 2-cluster layout built from scratch
// (cold, once per process) and handed out per run (clone of the prototype).
func BenchmarkClusterBuild(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netSink = buildCluster(1, 2)
		}
	})
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netSink = Cluster(1, 2)
		}
	})
}

func BenchmarkBFSDist(b *testing.B) {
	net := Uniform(30, 30, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Topo.BFSDist(0, nil)
	}
}

func BenchmarkRandomBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Random(RandomConfig{}, rng)
	}
}
