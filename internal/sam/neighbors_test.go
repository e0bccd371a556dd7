package sam

import (
	"math/rand/v2"
	"sync"
	"testing"

	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// refTables is the map-based NeighborTables the interned tables replaced,
// kept as the reference their audits must match.
type refTables struct {
	claims map[topology.NodeID]map[topology.NodeID]bool
}

func newRefTables() *refTables {
	return &refTables{claims: make(map[topology.NodeID]map[topology.NodeID]bool)}
}

func (t *refTables) claim(reporter, neighbor topology.NodeID) {
	m := t.claims[reporter]
	if m == nil {
		m = make(map[topology.NodeID]bool)
		t.claims[reporter] = m
	}
	m[neighbor] = true
}

func (t *refTables) corroborated(a, b topology.NodeID) bool {
	return t.claims[a][b] && t.claims[b][a]
}

func (t *refTables) detourHops(l topology.Link) int {
	if l.A == l.B {
		return 0
	}
	dist := map[topology.NodeID]int{l.A: 0}
	queue := []topology.NodeID{l.A}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for y := range t.claims[x] {
			if !t.claims[y][x] {
				continue
			}
			if (x == l.A && y == l.B) || (x == l.B && y == l.A) {
				continue
			}
			if _, seen := dist[y]; seen {
				continue
			}
			dist[y] = dist[x] + 1
			if y == l.B {
				return dist[y]
			}
			queue = append(queue, y)
		}
	}
	return -1
}

// refRadioTables builds the reference radio baseline by the all-pairs
// InRange scan the adjacency walk replaced.
func refRadioTables(topo *topology.Topology) *refTables {
	t := newRefTables()
	for a := 0; a < topo.N(); a++ {
		for b := a + 1; b < topo.N(); b++ {
			if topo.InRange(topology.NodeID(a), topology.NodeID(b)) {
				t.claim(topology.NodeID(a), topology.NodeID(b))
				t.claim(topology.NodeID(b), topology.NodeID(a))
			}
		}
	}
	return t
}

// matchReference compares every audit of nt with ref over all ordered pairs
// of ids: Corroborated, DetourHops, the hybrid's suspect check and the
// bounded detour search at limits 1 to 6.
func matchReference(t *testing.T, nt *NeighborTables, ref *refTables, ids []topology.NodeID) {
	t.Helper()
	for _, a := range ids {
		for _, b := range ids {
			l := topology.Link{A: a, B: b}
			corr := ref.corroborated(a, b)
			if got := nt.Corroborated(a, b); got != corr {
				t.Fatalf("Corroborated(%d, %d) = %v, reference %v", a, b, got, corr)
			}
			d := ref.detourHops(l)
			if got := nt.DetourHops(l); got != d {
				t.Fatalf("DetourHops(%v) = %d, reference %d", l, got, d)
			}
			for limit := 1; limit <= 6; limit++ {
				want := !corr || d < 0 || d >= limit
				if got := nt.suspect(l, limit); got != want {
					t.Fatalf("suspect(%v, %d) = %v, reference detour %d corroborated %v", l, limit, got, d, corr)
				}
				if !corr {
					continue
				}
				bounded := d
				if d >= limit {
					bounded = -1
				}
				if got := nt.detour(nt.index[a], nt.index[b], limit); got != bounded {
					t.Fatalf("detour(%v, limit %d) = %d, want %d (exact %d)", l, limit, got, bounded, d)
				}
			}
		}
	}
}

// randomClaims applies the same random Claim and ClaimLink sequence to nt
// and ref: one-sided claims, duplicates, and node IDs from pool.
func randomClaims(rng *rand.Rand, nt *NeighborTables, ref *refTables, pool []topology.NodeID, ops int) {
	for i := 0; i < ops; i++ {
		a, b := pool[rng.IntN(len(pool))], pool[rng.IntN(len(pool))]
		if a == b {
			continue
		}
		if rng.IntN(3) == 0 {
			nt.ClaimLink(a, b)
			ref.claim(a, b)
			ref.claim(b, a)
		} else {
			nt.Claim(a, b)
			ref.claim(a, b)
		}
	}
}

func TestNeighborTablesMatchReference(t *testing.T) {
	// Sparse IDs, interned in whatever order the claims first name them;
	// 999 is never claimed.
	pool := []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 777, 1 << 20}
	ids := append(pool, 999)
	rng := rand.New(rand.NewPCG(16, 4))
	for trial := 0; trial < 40; trial++ {
		nt, ref := NewNeighborTables(), newRefTables()
		for step := 0; step < 4; step++ {
			randomClaims(rng, nt, ref, pool, 12)
			matchReference(t, nt, ref, ids)
		}
	}
}

// TestNeighborTablesMatchReferenceAfterRadio claims tunnels and stray
// one-sided links on top of a radio baseline, as the ROC matrix does for
// its colluders: the inserts must not leak between a node's claims and its
// mutual list, nor between neighboring nodes' lists.
func TestNeighborTablesMatchReferenceAfterRadio(t *testing.T) {
	net := topology.Uniform(6, 6, 1, 2)
	var ids []topology.NodeID
	for i := 0; i < net.Topo.N(); i++ {
		ids = append(ids, topology.NodeID(i))
	}
	ids = append(ids, 500)
	rng := rand.New(rand.NewPCG(16, 5))
	for trial := 0; trial < 10; trial++ {
		nt, ref := RadioNeighborTables(net.Topo), refRadioTables(net.Topo)
		for _, p := range net.AttackerPairs {
			nt.ClaimLink(p[0], p[1])
			ref.claim(p[0], p[1])
			ref.claim(p[1], p[0])
		}
		randomClaims(rng, nt, ref, ids, 8)
		matchReference(t, nt, ref, ids)
	}
}

// gridTables returns the radio tables of the 6x6 grid with both tunnels
// corroborated by their colluders, and every link worth auditing: the
// radio links and the tunnels.
func gridTables(t testing.TB) (*NeighborTables, []topology.Link) {
	net := topology.Uniform(6, 6, 1, 2)
	nt := RadioNeighborTables(net.Topo)
	links := net.Topo.Links()
	for _, p := range net.AttackerPairs {
		nt.ClaimLink(p[0], p[1])
		links = append(links, topology.MkLink(p[0], p[1]))
	}
	if len(links) == 0 {
		t.Fatal("grid has no links")
	}
	return nt, links
}

// TestDetourHopsConcurrent runs detour searches on one shared table set
// from several goroutines, as perfbench's runner workers do; under -race it
// checks that the search scratch is never shared.
func TestDetourHopsConcurrent(t *testing.T) {
	nt, links := gridTables(t)
	want := make([]int, len(links))
	for i, l := range links {
		want[i] = nt.DetourHops(l)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, l := range links {
					if got := nt.DetourHops(l); got != want[i] {
						t.Errorf("concurrent DetourHops(%v) = %d, want %d", l, got, want[i])
						return
					}
					if got, w := nt.suspect(l, 4), want[i] < 0 || want[i] >= 4; got != w {
						t.Errorf("concurrent suspect(%v) = %v, want %v", l, got, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestDetourHopsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	nt, links := gridTables(t)
	audit := func() {
		for _, l := range links {
			nt.DetourHops(l)
			nt.suspect(l, 4)
			nt.Corroborated(l.A, l.B)
		}
	}
	audit() // size the pooled scratch
	if got := testing.AllocsPerRun(100, audit); got != 0 {
		t.Errorf("neighbor audits allocate %.1f times per pass, want 0", got)
	}
}

// gridHonestSet is an honest 6x6-grid route set: every row crossed left to
// right plus one staircase, with nominal per-hop timing, and the grid's
// radio tables.
func gridHonestSet(t testing.TB) ([]routing.Route, []sim.Time, *NeighborTables) {
	net := topology.Uniform(6, 6, 1, 0)
	id := func(x, y int) topology.NodeID { return topology.NodeID(x*6 + y) }
	var routes []routing.Route
	for y := 0; y < 6; y++ {
		var r routing.Route
		for x := 0; x < 6; x++ {
			r = append(r, id(x, y))
		}
		routes = append(routes, r)
	}
	stair := routing.Route{id(0, 0)}
	for k := 1; k < 6; k++ {
		stair = append(stair, id(k, k-1), id(k, k))
	}
	routes = append(routes, stair)
	for _, r := range routes {
		if !r.Valid(net.Topo) {
			t.Fatalf("route %v is not a radio path", r)
		}
	}
	return routes, honestTimes(routes), RadioNeighborTables(net.Topo)
}

// TestHybridEvaluateAllocs pins the hybrid's allocations on an honest set to
// those of its SAM and PMF components: the z-score, neighbor-table and
// delay channels add none.
func TestHybridEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	routes, times, nt := gridHonestSet(t)
	h := trainedHybrid(t, nt, HybridConfig{})
	s := Analyze(routes)
	if v := h.Evaluate(s, routes, times); v.ByNeighbor || v.ByDelay {
		t.Fatalf("honest grid set fired a side channel: %+v", v)
	}
	samAllocs := testing.AllocsPerRun(100, func() { h.det.Evaluate(s) })
	pmfAllocs := testing.AllocsPerRun(100, func() { h.pmf.Evaluate(s) })
	got := testing.AllocsPerRun(100, func() { h.Evaluate(s, routes, times) })
	if got != samAllocs+pmfAllocs {
		t.Errorf("hybrid Evaluate allocates %.1f times, want %.1f (SAM %.1f + PMF %.1f)",
			got, samAllocs+pmfAllocs, samAllocs, pmfAllocs)
	}
}

var hybridSink HybridVerdict

// BenchmarkHybridEvaluate times one hybrid verdict on an honest grid route
// set: every channel runs, the neighbor audit over every link of the set.
func BenchmarkHybridEvaluate(b *testing.B) {
	routes, times, nt := gridHonestSet(b)
	h := trainedHybrid(b, nt, HybridConfig{})
	s := Analyze(routes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hybridSink = h.Evaluate(s, routes, times)
	}
}
