package sam

import (
	"math"
	"slices"
	"sync"

	"samnet/internal/topology"
)

// NeighborTables collects per-node neighbor claims — the "who do you hear"
// reports a neighbor-table-comparison check audits. Honest nodes report
// their radio neighborhood; colluding wormhole nodes also claim the tunnel
// (both endpoints corroborate it, so a mutual-claim check alone cannot see
// it). Two audits run over the claims:
//
//   - Corroborated: a link is believable only if both endpoints claim each
//     other. Fabricated links in forged route replies fail this — the
//     invented neighbor never claimed the forger.
//   - DetourHops: for a corroborated link, the hop distance between its
//     endpoints through the rest of the claimed graph. Radio links always
//     have short detours (their endpoints share a physical neighborhood); a
//     tunnel's endpoints are many honest hops apart, however loudly the
//     colluders corroborate the link itself.
//
// Claim interns each node ID once into a dense index, so the audits run on
// slices: every node keeps its claims and its corroborated (mutual)
// neighbors as two sorted index slices, and the detour search walks only
// the mutual ones. Reads may run concurrently once claiming is done.
type NeighborTables struct {
	index  map[topology.NodeID]int32 // node ID -> dense index
	claims [][]int32                 // claims[i]: indices node i claims, ascending
	mutual [][]int32                 // mutual[i]: claims[i] that claim i back, ascending
}

// NewNeighborTables returns an empty claim set.
func NewNeighborTables() *NeighborTables {
	return &NeighborTables{index: make(map[topology.NodeID]int32)}
}

// RadioNeighborTables builds the honest baseline: every node claims exactly
// its radio (in-range) neighborhood, tunnels excluded.
func RadioNeighborTables(topo *topology.Topology) *NeighborTables {
	n := topo.N()
	t := &NeighborTables{
		index:  make(map[topology.NodeID]int32, n),
		claims: make([][]int32, n),
		mutual: make([][]int32, n),
	}
	total := 0
	for a := 0; a < n; a++ {
		t.index[topology.NodeID(a)] = int32(a)
		total += len(topo.Neighbors(topology.NodeID(a)))
	}
	// One array each for all claims and all mutual lists, sized so appends
	// never move it. Radio range is symmetric, so every claim is mutual, but
	// claims and mutual lists never share an array: a later Claim inserts
	// into one without the other. Each node's window is capped at its
	// length, so such an insert reallocates instead of overwriting the next
	// node's list.
	claims, mutual := make([]int32, 0, total), make([]int32, 0, total)
	for a := 0; a < n; a++ {
		id := topology.NodeID(a)
		start := len(claims)
		// Neighbors is ascending, so the filtered list is too.
		for _, b := range topo.Neighbors(id) {
			if topo.InRange(id, b) {
				claims = append(claims, int32(b))
				mutual = append(mutual, int32(b))
			}
		}
		end := len(claims)
		t.claims[a], t.mutual[a] = claims[start:end:end], mutual[start:end:end]
	}
	return t
}

// intern returns id's dense index, assigning the next one on first sight.
func (t *NeighborTables) intern(id topology.NodeID) int32 {
	i, ok := t.index[id]
	if !ok {
		i = int32(len(t.claims))
		t.index[id] = i
		t.claims = append(t.claims, nil)
		t.mutual = append(t.mutual, nil)
	}
	return i
}

// insertSorted adds x to the ascending set s, reporting false when it was
// already there.
func insertSorted(s []int32, x int32) ([]int32, bool) {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s, false
	}
	return slices.Insert(s, i, x), true
}

// Claim records that reporter lists neighbor in its neighbor table.
func (t *NeighborTables) Claim(reporter, neighbor topology.NodeID) {
	if reporter == neighbor {
		panic("sam: self neighbor claim")
	}
	r, nb := t.intern(reporter), t.intern(neighbor)
	var added bool
	if t.claims[r], added = insertSorted(t.claims[r], nb); !added {
		return
	}
	if _, back := slices.BinarySearch(t.claims[nb], r); back {
		t.mutual[r], _ = insertSorted(t.mutual[r], nb)
		t.mutual[nb], _ = insertSorted(t.mutual[nb], r)
	}
}

// ClaimLink records mutual claims for both endpoints — how colluding
// attackers corroborate their own tunnel, and how honest radio links enter
// the tables.
func (t *NeighborTables) ClaimLink(a, b topology.NodeID) {
	t.Claim(a, b)
	t.Claim(b, a)
}

// corroborated returns the dense indices of a and b and whether they claim
// each other.
func (t *NeighborTables) corroborated(a, b topology.NodeID) (ia, ib int32, ok bool) {
	ia, okA := t.index[a]
	ib, okB := t.index[b]
	if !okA || !okB {
		return ia, ib, false
	}
	_, ok = slices.BinarySearch(t.mutual[ia], ib)
	return ia, ib, ok
}

// Corroborated reports whether a and b both claim each other.
func (t *NeighborTables) Corroborated(a, b topology.NodeID) bool {
	_, _, ok := t.corroborated(a, b)
	return ok
}

// DetourHops returns the hop distance between l's endpoints through the
// corroborated claim graph with l itself removed — the length of the honest
// detour around the link. It returns -1 when no detour exists. Radio links
// detour in 2–3 hops on the paper's topologies; a corroborated tunnel can
// only detour over the many-hop honest path it shortcuts.
func (t *NeighborTables) DetourHops(l topology.Link) int {
	if l.A == l.B {
		return 0
	}
	a, okA := t.index[l.A]
	b, okB := t.index[l.B]
	if !okA || !okB {
		return -1
	}
	return t.detour(a, b, math.MaxInt)
}

// suspect reports whether the hybrid's neighbor channel condemns l: its
// endpoints do not corroborate it, or no detour around it is shorter than
// limit hops.
func (t *NeighborTables) suspect(l topology.Link, limit int) bool {
	a, b, ok := t.corroborated(l.A, l.B)
	return !ok || t.detour(a, b, limit) < 0
}

// bfsScratch is one detour search's working state. mark[i] == epoch means
// node i was reached in the current search, at distance dist[i]; bumping
// epoch clears every mark at once.
type bfsScratch struct {
	epoch uint32
	mark  []uint32
	dist  []int32
	queue []int32
}

// bfsPool holds the search scratch outside the tables, so concurrent
// readers of one table set never share it.
var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// detour is a breadth-first search from a to b over the mutual edges,
// skipping the edge a-b itself. It returns the hop distance when it is
// below limit and -1 otherwise; DetourHops is the unbounded case.
func (t *NeighborTables) detour(a, b int32, limit int) int {
	sc := bfsPool.Get().(*bfsScratch)
	d := sc.search(t.mutual, a, b, limit)
	bfsPool.Put(sc)
	return d
}

func (sc *bfsScratch) search(adj [][]int32, a, b int32, limit int) int {
	if len(sc.mark) < len(adj) {
		sc.mark = make([]uint32, len(adj))
		sc.dist = make([]int32, len(adj))
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(sc.mark)
		sc.epoch = 1
	}
	epoch, mark, dist := sc.epoch, sc.mark, sc.dist
	mark[a], dist[a] = epoch, 0
	queue := append(sc.queue[:0], a)
	found := -1
search:
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		d := dist[x] + 1
		if int(d) >= limit {
			break // the queue is in distance order: nothing nearer remains
		}
		for _, y := range adj[x] {
			if x == a && y == b || mark[y] == epoch {
				continue // the audited link itself, or already reached
			}
			if y == b {
				found = int(d)
				break search
			}
			mark[y], dist[y] = epoch, d
			queue = append(queue, y)
		}
	}
	sc.queue = queue
	return found
}
