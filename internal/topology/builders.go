package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"samnet/internal/geom"
)

// Network bundles a topology with the experiment-facing metadata the paper's
// setups imply: which nodes may be chosen as source/destination, and where
// the attacker nodes sit. Attacker nodes are always present — in normal
// ("no attack") runs they behave as ordinary relays; installing the tunnel
// between a pair is the attack package's job.
type Network struct {
	Topo *Topology

	// SrcPool and DstPool are the candidate source/destination nodes for a
	// route discovery, per the paper's placement rules (cluster A to cluster
	// B; left side to right side).
	SrcPool, DstPool []NodeID

	// AttackerPairs lists wormhole endpoint pairs, in the order experiments
	// enable them (fig15 uses one, then two).
	AttackerPairs [][2]NodeID
}

// Attackers returns the set of all attacker node ids.
func (n *Network) Attackers() map[NodeID]bool {
	out := make(map[NodeID]bool, 2*len(n.AttackerPairs))
	for _, p := range n.AttackerPairs {
		out[p[0]] = true
		out[p[1]] = true
	}
	return out
}

// PickPair draws a (source, destination) pair from the pools using rng.
// Attacker nodes never appear in the pools, and source != destination is
// guaranteed because the pools are disjoint in every builder.
func (n *Network) PickPair(rng *rand.Rand) (src, dst NodeID) {
	src = n.SrcPool[rng.IntN(len(n.SrcPool))]
	dst = n.DstPool[rng.IntN(len(n.DstPool))]
	return src, dst
}

// TunnelSpan returns the normal-path hop distance between the endpoints of
// attacker pair i, ignoring every tunnel. It measures how many hops the
// wormhole shortcuts. It only reads the topology.
func (n *Network) TunnelSpan(i int) int {
	pair := n.AttackerPairs[i]
	return n.Topo.radioHopDist(pair[0], pair[1])
}

// clone returns a copy of n that can be mutated independently: its own
// topology (see Topology.clone), pools and attacker pairs.
func (n *Network) clone() *Network {
	return &Network{
		Topo:          n.Topo.clone(),
		SrcPool:       slices.Clone(n.SrcPool),
		DstPool:       slices.Clone(n.DstPool),
		AttackerPairs: slices.Clone(n.AttackerPairs),
	}
}

// gridKey identifies one deterministic grid layout by its builder's
// arguments; cols and rows are zero for the cluster system.
type gridKey struct {
	cols, rows, k, wormholes int
}

// grids holds one frozen prototype per grid layout built so far. Cluster and
// Uniform are pure functions of their arguments, so each layout is built
// once and every call returns a clone of its prototype.
var grids sync.Map // gridKey -> *Network

func gridClone(key gridKey, build func() *Network) *Network {
	p, ok := grids.Load(key)
	if !ok {
		p, _ = grids.LoadOrStore(key, build())
	}
	return p.(*Network).clone()
}

// Cluster builds the paper's 2-cluster system (Fig. 1): two 4x4 clusters
// joined by a 2x5 bridge, 42 nodes total, at unit grid spacing. k is the
// tier (transmission range = k grid spacings).
//
// Attacker pair 0 is a malicious insider in each cluster — the node at (1,1)
// in cluster A and (10,2) in cluster B. Their tunnel shortcuts 10 normal
// hops at 1-tier (the paper's "long attack link") and beats the 2x5 bridge
// for every source/destination pair, which is why the paper sees 100% of
// cluster-topology routes affected. Attackers are removed from the
// source/destination pools. wormholes may be 0..2; pair 1 claims (2,2) and
// (11,1).
//
// Each call returns a fresh network that the caller may mutate freely.
func Cluster(k, wormholes int) *Network {
	return gridClone(gridKey{k: k, wormholes: wormholes}, func() *Network { return buildCluster(k, wormholes) })
}

func buildCluster(k, wormholes int) *Network {
	if k < 1 {
		panic("topology: tier must be >= 1")
	}
	t := New(fmt.Sprintf("cluster-%dtier", k), TierRange(k, 1))
	net := &Network{Topo: t}

	// Cluster A: 4x4 at x in [0,3], y in [0,3].
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			id := t.AddNode(geom.Pt(float64(x), float64(y)))
			net.SrcPool = append(net.SrcPool, id)
		}
	}
	// Bridge: 2 rows x 5 columns at x in [4,8], y in {1,2}.
	for x := 4; x <= 8; x++ {
		for y := 1; y <= 2; y++ {
			t.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	// Cluster B: 4x4 at x in [9,12], y in [0,3].
	for x := 9; x < 13; x++ {
		for y := 0; y < 4; y++ {
			id := t.AddNode(geom.Pt(float64(x), float64(y)))
			net.DstPool = append(net.DstPool, id)
		}
	}
	claimAttackerPairs(net, wormholes, [][2]geom.Point{
		{geom.Pt(2, 1), geom.Pt(10, 2)},
		{geom.Pt(1, 2), geom.Pt(11, 1)},
	})
	t.Freeze()
	return net
}

// Uniform builds a cols x rows uniform grid (Fig. 2 uses 6x6; the long-
// tunnel variant in Fig. 8 uses 10x6) at unit spacing and tier k. Sources
// are drawn from the leftmost two columns and destinations from the
// rightmost two, per the paper ("close to one attacker ... opposite side").
//
// Attacker pair 0 is a malicious insider on each vertical edge, offset one
// row from each other: (0,2) and (cols-1,3) for six rows. That reproduces
// the paper's tunnel spans exactly — 6 hops in the 6x6 grid, 10 hops in the
// 10x6 grid of Fig. 8. wormholes may be 0..2; pair 1 claims (1,0) and
// (cols-2,rows-1).
//
// Each call returns a fresh network that the caller may mutate freely.
func Uniform(cols, rows, k, wormholes int) *Network {
	return gridClone(gridKey{cols, rows, k, wormholes}, func() *Network { return buildUniform(cols, rows, k, wormholes) })
}

func buildUniform(cols, rows, k, wormholes int) *Network {
	if cols < 3 || rows < 3 {
		panic("topology: uniform grid too small")
	}
	if k < 1 {
		panic("topology: tier must be >= 1")
	}
	t := New(fmt.Sprintf("uniform%dx%d-%dtier", cols, rows, k), TierRange(k, 1))
	net := &Network{Topo: t}
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			id := t.AddNode(geom.Pt(float64(x), float64(y)))
			if x < 2 {
				net.SrcPool = append(net.SrcPool, id)
			}
			if x >= cols-2 {
				net.DstPool = append(net.DstPool, id)
			}
		}
	}
	mid := rows / 2
	claimAttackerPairs(net, wormholes, [][2]geom.Point{
		{geom.Pt(0, float64(mid-1)), geom.Pt(float64(cols-1), float64(mid))},
		{geom.Pt(1, 0), geom.Pt(float64(cols-2), float64(rows-1))},
	})
	t.Freeze()
	return net
}

// RandomConfig parameterizes Random.
type RandomConfig struct {
	N      int     // node count (default 60)
	Side   float64 // square side length (default 15)
	Radius float64 // radio range (default 2.3)
	// Wormholes is the number of attacker pairs (0..2). Attackers sit at
	// fixed positions on the left/right edges, as in the paper's fixed-
	// position assumption.
	Wormholes int
	// MaxTries bounds the rejection sampling for a connected placement
	// (default 2000).
	MaxTries int
}

func (c *RandomConfig) defaults() {
	if c.N == 0 {
		c.N = 60
	}
	if c.Side == 0 {
		c.Side = 15
	}
	if c.Radius == 0 {
		c.Radius = 2.3
	}
	if c.MaxTries == 0 {
		c.MaxTries = 2000
	}
}

// Random builds a random topology (Fig. 9): N nodes placed uniformly at
// random in a Side x Side square, redrawn until the network is connected.
// Sources come from the left quarter and destinations from the right
// quarter ("close to one attacker ... opposite side", as in the paper's
// uniform setup); if a draw leaves either pool empty it is rejected too.
// Attacker pair 0 claims the placed nodes nearest (Side/6, Side/2) and
// (5*Side/6, Side/2) — one embedded in each end region, mirroring the grid
// setups where each attacker sits close to one traffic pool; pair 1 claims
// nodes displaced a quarter-side vertically from pair 0.
func Random(cfg RandomConfig, rng *rand.Rand) *Network {
	cfg.defaults()
	for try := 0; try < cfg.MaxTries; try++ {
		t := New("random", cfg.Radius)
		net := &Network{Topo: t}
		for i := 0; i < cfg.N; i++ {
			p := geom.Pt(rng.Float64()*cfg.Side, rng.Float64()*cfg.Side)
			id := t.AddNode(p)
			switch {
			case p.X < cfg.Side/4:
				net.SrcPool = append(net.SrcPool, id)
			case p.X > 3*cfg.Side/4:
				net.DstPool = append(net.DstPool, id)
			}
		}
		mid := cfg.Side / 2
		claimAttackerPairs(net, cfg.Wormholes, [][2]geom.Point{
			{geom.Pt(cfg.Side/6, mid), geom.Pt(5*cfg.Side/6, mid)},
			{geom.Pt(cfg.Side/6, mid/2), geom.Pt(5*cfg.Side/6, 3*mid/2)},
		})
		t.Freeze()
		if len(net.SrcPool) > 0 && len(net.DstPool) > 0 && t.Connected() {
			return net
		}
	}
	panic("topology: could not draw a connected random topology; raise Radius or N")
}

// claimAttackerPairs designates, for each requested wormhole, the two
// existing nodes nearest the given anchor points as the attacker pair —
// malicious insiders at fixed positions, per the paper's model. Claimed
// nodes are removed from the source/destination pools.
func claimAttackerPairs(net *Network, wormholes int, anchors [][2]geom.Point) {
	if wormholes < 0 || wormholes > len(anchors) {
		panic(fmt.Sprintf("topology: wormholes must be in [0,%d]", len(anchors)))
	}
	claimed := make(map[NodeID]bool)
	for i := 0; i < wormholes; i++ {
		a := nearestUnclaimed(net.Topo, anchors[i][0], claimed)
		claimed[a] = true
		b := nearestUnclaimed(net.Topo, anchors[i][1], claimed)
		claimed[b] = true
		net.AttackerPairs = append(net.AttackerPairs, [2]NodeID{a, b})
	}
	net.SrcPool = withoutNodes(net.SrcPool, claimed)
	net.DstPool = withoutNodes(net.DstPool, claimed)
}

func nearestUnclaimed(t *Topology, p geom.Point, claimed map[NodeID]bool) NodeID {
	best := None
	bestD := math.MaxFloat64
	for i := 0; i < t.N(); i++ {
		id := NodeID(i)
		if claimed[id] {
			continue
		}
		if d := t.Pos(id).Dist2(p); d < bestD {
			best, bestD = id, d
		}
	}
	if best == None {
		panic("topology: no node available to claim as attacker")
	}
	return best
}

func withoutNodes(pool []NodeID, drop map[NodeID]bool) []NodeID {
	out := pool[:0]
	for _, id := range pool {
		if !drop[id] {
			out = append(out, id)
		}
	}
	return out
}
