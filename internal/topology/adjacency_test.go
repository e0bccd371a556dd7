package topology

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"samnet/internal/geom"
)

// refAdjacency is the brute-force reference for the adjacency cache: an
// O(n^2) unit-disk scan plus every tunnel, each list sorted and
// deduplicated.
func refAdjacency(t *Topology) [][]NodeID {
	n := len(t.pos)
	adj := make([][]NodeID, n)
	r2 := t.radius * t.radius
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && t.pos[i].Dist2(t.pos[j]) <= r2 {
				adj[i] = append(adj[i], NodeID(j))
			}
		}
	}
	for l := range t.extra {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for i := range adj {
		sort.Slice(adj[i], func(a, b int) bool { return adj[i][a] < adj[i][b] })
		out := adj[i][:0]
		for k, v := range adj[i] {
			if k == 0 || v != adj[i][k-1] {
				out = append(out, v)
			}
		}
		adj[i] = out
	}
	return adj
}

// checkAgainstReference compares every adjacency read of topo with the
// brute-force reference.
func checkAgainstReference(t *testing.T, step string, topo *Topology) {
	t.Helper()
	ref := refAdjacency(topo)
	var links []Link
	for a := range ref {
		got := topo.Neighbors(NodeID(a))
		if !slices.Equal(got, ref[a]) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", step, a, got, ref[a])
		}
		if d := topo.Degree(NodeID(a)); d != len(ref[a]) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", step, a, d, len(ref[a]))
		}
		for b := range ref {
			want := slices.Contains(ref[a], NodeID(b))
			if got := topo.Adjacent(NodeID(a), NodeID(b)); got != want {
				t.Fatalf("%s: Adjacent(%d,%d) = %v, want %v", step, a, b, got, want)
			}
		}
		for _, b := range ref[a] {
			if NodeID(a) < b {
				links = append(links, Link{A: NodeID(a), B: b})
			}
		}
	}
	if got := topo.Links(); !slices.Equal(got, links) {
		t.Fatalf("%s: Links = %v, want %v", step, got, links)
	}
}

// TestAdjacencyMatchesReference applies random mutation sequences to random
// and grid layouts and checks the adjacency after every step. Each step is
// checked on a clone, so the original's lazy cache stays in whatever state
// the sequence left it (stale after a move, built after a read) and both
// the incremental tunnel path and the full build get exercised.
func TestAdjacencyMatchesReference(t *testing.T) {
	layouts := []struct {
		name string
		mk   func(rng *rand.Rand) *Topology
	}{
		{"random", func(rng *rand.Rand) *Topology {
			topo := New("random", 1.5)
			for i := 0; i < 20; i++ {
				topo.AddNode(geom.Pt(rng.Float64()*6, rng.Float64()*6))
			}
			return topo
		}},
		{"cluster", func(*rand.Rand) *Topology { return Cluster(1, 2).Topo }},
		{"uniform-2tier", func(*rand.Rand) *Topology { return Uniform(6, 6, 2, 2).Topo }},
	}
	for _, lay := range layouts {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, 14))
			topo := lay.mk(rng)
			checkAgainstReference(t, lay.name+" initial", topo)
			for step := 0; step < 60; step++ {
				op := mutate(rng, topo)
				if op == "read" {
					checkAgainstReference(t, lay.name+" read", topo)
				} else {
					checkAgainstReference(t, lay.name+" "+op, topo.clone())
				}
			}
			checkAgainstReference(t, lay.name+" final", topo)
		}
	}
}

// mutate applies one random operation to topo and names it.
func mutate(rng *rand.Rand, topo *Topology) string {
	n := topo.N()
	node := func() NodeID { return NodeID(rng.IntN(n)) }
	switch rng.IntN(8) {
	case 0:
		topo.AddNode(geom.Pt(rng.Float64()*6, rng.Float64()*6))
		return "AddNode"
	case 1:
		topo.SetPos(node(), geom.Pt(rng.Float64()*6, rng.Float64()*6))
		return "SetPos"
	case 2:
		a, b := node(), node()
		if a == b {
			return "read"
		}
		topo.AddExtraLink(a, b)
		return "AddExtraLink"
	case 3:
		// A tunnel that doubles a radio link.
		a := node()
		for b := 0; b < n; b++ {
			if topo.InRange(a, NodeID(b)) {
				topo.AddExtraLink(a, NodeID(b))
				return "AddExtraLink(radio)"
			}
		}
		return "read"
	case 4:
		// A duplicate tunnel.
		if ex := topo.ExtraLinks(); len(ex) > 0 {
			l := ex[rng.IntN(len(ex))]
			topo.AddExtraLink(l.B, l.A)
			return "AddExtraLink(duplicate)"
		}
		return "read"
	case 5:
		if ex := topo.ExtraLinks(); len(ex) > 0 {
			l := ex[rng.IntN(len(ex))]
			topo.RemoveExtraLink(l.B, l.A)
			return "RemoveExtraLink"
		}
		return "read"
	case 6:
		// Usually absent.
		topo.RemoveExtraLink(node(), node())
		return "RemoveExtraLink(absent)"
	default:
		return "read"
	}
}

// TestNeighborsCopyOnWrite pins the contract the simulator relies on: a
// neighbor list, once returned, is never edited by a later topology change.
func TestNeighborsCopyOnWrite(t *testing.T) {
	topo := Cluster(1, 2).Topo
	held := make([][]NodeID, topo.N())
	snap := make([][]NodeID, topo.N())
	hold := func() {
		for i := range held {
			held[i] = topo.Neighbors(NodeID(i))
			snap[i] = slices.Clone(held[i])
		}
	}
	unchanged := func(after string) {
		t.Helper()
		for i := range held {
			if !slices.Equal(held[i], snap[i]) {
				t.Fatalf("after %s: held Neighbors(%d) changed from %v to %v", after, i, snap[i], held[i])
			}
		}
	}
	hold()
	topo.AddExtraLink(0, 41)
	unchanged("AddExtraLink")
	hold()
	topo.AddExtraLink(0, 1) // doubles a radio link
	unchanged("AddExtraLink(radio)")
	hold()
	topo.RemoveExtraLink(41, 0)
	unchanged("RemoveExtraLink")
	hold()
	topo.SetPos(5, geom.Pt(20, 20))
	topo.Freeze()
	unchanged("SetPos")
	hold()
	topo.AddNode(geom.Pt(0.5, 0.5))
	topo.Freeze()
	unchanged("AddNode")
}

func TestTunnelLinkAllocs(t *testing.T) {
	topo := Cluster(1, 2).Topo
	// Each change copies the two endpoint lists and nothing else.
	if got := testing.AllocsPerRun(100, func() {
		topo.AddExtraLink(0, 41)
		topo.RemoveExtraLink(0, 41)
	}); got != 4 {
		t.Errorf("AddExtraLink+RemoveExtraLink allocs = %v, want 4", got)
	}
	// Duplicates, absent links and radio-doubling tunnels touch no list.
	topo.AddExtraLink(0, 41)
	if got := testing.AllocsPerRun(100, func() {
		topo.AddExtraLink(41, 0)
		topo.RemoveExtraLink(2, 40)
		topo.AddExtraLink(0, 1)
		topo.RemoveExtraLink(0, 1)
	}); got != 0 {
		t.Errorf("no-op tunnel changes allocs = %v, want 0", got)
	}
}

func TestGridCloneAllocs(t *testing.T) {
	Cluster(1, 2)
	// Network, Topology, positions, tunnel map, outer adjacency slice and
	// the three pool/pair slices; the neighbor lists are shared.
	if got := testing.AllocsPerRun(100, func() { Cluster(1, 2) }); got != 8 {
		t.Errorf("Cluster(1,2) allocs = %v, want 8", got)
	}
}
