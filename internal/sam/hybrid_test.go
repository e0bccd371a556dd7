package sam

import (
	"testing"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// hubTables builds neighbor tables that corroborate every link of the given
// route sets and give each a short detour via a shared hub node — the
// honest-radio shape, where every link's endpoints share a neighborhood.
func hubTables(routeSets ...[]routing.Route) *NeighborTables {
	const hub = topology.NodeID(1 << 20)
	nt := NewNeighborTables()
	for _, routes := range routeSets {
		for _, r := range routes {
			for i := 0; i+1 < len(r); i++ {
				nt.ClaimLink(r[i], r[i+1])
				nt.ClaimLink(r[i], hub)
				nt.ClaimLink(r[i+1], hub)
			}
		}
	}
	return nt
}

// honestTimes returns per-route timings at exactly one nominal hop delay per
// hop.
func honestTimes(routes []routing.Route) []sim.Time {
	ts := make([]sim.Time, len(routes))
	for i, r := range routes {
		ts[i] = sim.Time(r.Hops())
	}
	return ts
}

func trainedHybrid(t testing.TB, nt *NeighborTables, cfg HybridConfig) *HybridDetector {
	t.Helper()
	tr := NewTrainer("hybrid-test", 0)
	for v := 0; v < 12; v++ {
		tr.ObserveRoutes(normalRoutes(v))
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return NewHybridDetector(prof, nt, cfg)
}

func TestHybridNormalStaysQuiet(t *testing.T) {
	routes := normalRoutes(99)
	h := trainedHybrid(t, hubTables(routes), HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, honestTimes(routes))
	if v.Attacked {
		t.Fatalf("normal routes flagged: %+v", v)
	}
	if v.ByZ || v.ByNeighbor || v.ByDelay {
		t.Errorf("side channels fired on honest evidence: %+v", v)
	}
}

func TestHybridFlagsClassicWormholeByFrequency(t *testing.T) {
	routes := attackRoutes()
	// Corroborate even the tunnel (colluders do) and give it a short detour:
	// the frequency channels must still catch the classic spike on their own.
	h := trainedHybrid(t, hubTables(routes), HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, honestTimes(routes))
	if !v.Attacked || !(v.BySAM || v.ByPMF || v.ByZ) {
		t.Errorf("classic frequency spike not caught: %+v", v)
	}
}

func TestHybridFlagsUncorroboratedLink(t *testing.T) {
	routes := normalRoutes(0)
	nt := hubTables(routes)
	// One more route claims a link whose far end never claimed back — a
	// forged reply's fabricated relay.
	forged := routing.Route{0, 777, 19}
	routes = append(routes, forged)
	nt.Claim(0, 777) // one-sided: node 777 does not answer

	h := trainedHybrid(t, nt, HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, nil)
	if !v.ByNeighbor || !v.Attacked {
		t.Fatalf("fabricated link not flagged: %+v", v)
	}
	if len(v.SuspectLinks) == 0 {
		t.Error("suspect links should name the fabricated link")
	}
}

func TestHybridFlagsLongDetourTunnel(t *testing.T) {
	// A corroborated shortcut 200-206 across a 6-hop line of colluders: both
	// endpoints claim the link (as wormhole endpoints do), but the only
	// detour around it is the line itself — a wormhole's signature.
	nt := hubTables(normalRoutes(0))
	for i := topology.NodeID(200); i < 206; i++ {
		nt.ClaimLink(i, i+1)
	}
	nt.ClaimLink(200, 206)

	routes := append(normalRoutes(0), routing.Route{200, 206})
	h := trainedHybrid(t, nt, HybridConfig{})
	v := h.Evaluate(Analyze(routes), routes, nil)
	if !v.ByNeighbor || !v.Attacked {
		t.Fatalf("long-detour tunnel not flagged: %+v", v)
	}
}

func TestHybridFlagsDelayOutliers(t *testing.T) {
	routes := normalRoutes(0)
	h := trainedHybrid(t, hubTables(routes), HybridConfig{})

	slow := honestTimes(routes)
	slow[0] *= 3 // one route paid tunnel store-and-forward cost
	v := h.Evaluate(Analyze(routes), routes, slow)
	if !v.ByDelay || v.SlowRoutes != 1 {
		t.Fatalf("slow route not flagged: %+v", v)
	}

	fast := honestTimes(routes)
	fast[1] = -2 // a forged reply lands before the flood even ends
	v = h.Evaluate(Analyze(routes), routes, fast)
	if !v.ByDelay || v.FastRoutes != 1 {
		t.Fatalf("fast route not flagged: %+v", v)
	}

	if v = h.Evaluate(Analyze(routes), routes, nil); v.ByDelay {
		t.Error("nil times must disable the delay check")
	}
}

func TestHybridNilNeighborsDisablesCheck(t *testing.T) {
	routes := append(normalRoutes(0), routing.Route{0, 777, 19})
	h := trainedHybrid(t, nil, HybridConfig{})
	if v := h.Evaluate(Analyze(routes), routes, nil); v.ByNeighbor {
		t.Error("nil tables must disable the neighbor check")
	}
}

func TestHybridConfigExplicitZero(t *testing.T) {
	h := trainedHybrid(t, nil, HybridConfig{
		TVThreshold:     ExplicitZero,
		TailProb:        ExplicitZero,
		SlowHopRatio:    ExplicitZero,
		FastHopRatio:    ExplicitZero,
		NominalHopDelay: sim.Time(ExplicitZero),
	})
	cfg := h.Config()
	if cfg.TVThreshold != 0 || cfg.TailProb != 0 || cfg.SlowHopRatio != 0 ||
		cfg.FastHopRatio != 0 || cfg.NominalHopDelay != 0 {
		t.Errorf("ExplicitZero fields did not resolve to zero: %+v", cfg)
	}

	def := trainedHybrid(t, nil, HybridConfig{}).Config()
	if def.TVThreshold != 0.5 || def.TailProb != 0.02 || def.DetourHops != 4 ||
		def.SlowHopRatio != 1.2 || def.FastHopRatio != 0.6 || def.NominalHopDelay != 1.05 {
		t.Errorf("defaults wrong: %+v", def)
	}
}

func TestNeighborTablesCorroboration(t *testing.T) {
	nt := NewNeighborTables()
	nt.Claim(1, 2)
	if nt.Corroborated(1, 2) {
		t.Error("one-sided claim must not corroborate")
	}
	nt.Claim(2, 1)
	if !nt.Corroborated(1, 2) || !nt.Corroborated(2, 1) {
		t.Error("mutual claims corroborate in both orders")
	}
	defer func() {
		if recover() == nil {
			t.Error("self-claim should panic")
		}
	}()
	nt.Claim(3, 3)
}

func TestNeighborTablesDetourHops(t *testing.T) {
	nt := NewNeighborTables()
	// Triangle 1-2-3: removing any edge leaves a 2-hop detour.
	nt.ClaimLink(1, 2)
	nt.ClaimLink(2, 3)
	nt.ClaimLink(1, 3)
	if d := nt.DetourHops(topology.MkLink(1, 3)); d != 2 {
		t.Errorf("triangle detour = %d, want 2", d)
	}
	// An isolated edge has no detour at all.
	nt.ClaimLink(8, 9)
	if d := nt.DetourHops(topology.MkLink(8, 9)); d != -1 {
		t.Errorf("isolated edge detour = %d, want -1", d)
	}
	// Uncorroborated edges are not usable as detour hops.
	nt2 := NewNeighborTables()
	nt2.ClaimLink(1, 2)
	nt2.Claim(1, 4)
	nt2.Claim(4, 2) // 1-4-2 exists only as one-sided claims
	if d := nt2.DetourHops(topology.MkLink(1, 2)); d != -1 {
		t.Errorf("one-sided detour accepted: %d", d)
	}
}

func TestRadioNeighborTablesMatchesInRange(t *testing.T) {
	for _, net := range []*topology.Network{topology.Cluster(1, 1), topology.Uniform(6, 6, 1, 2)} {
		var tunnels []topology.Link
		for _, p := range net.AttackerPairs {
			w := topology.MkLink(p[0], p[1])
			net.Topo.AddExtraLink(w.A, w.B)
			tunnels = append(tunnels, w)
		}

		nt := RadioNeighborTables(net.Topo)
		for _, w := range tunnels {
			if nt.Corroborated(w.A, w.B) {
				t.Errorf("%s: tunnel link %v must not enter honest radio tables", net.Topo.Name(), w)
			}
		}
		n := net.Topo.N()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				ida, idb := topology.NodeID(a), topology.NodeID(b)
				if net.Topo.InRange(ida, idb) != nt.Corroborated(ida, idb) {
					t.Fatalf("%s: radio tables disagree with InRange at (%d,%d)", net.Topo.Name(), a, b)
				}
			}
		}
	}
}
