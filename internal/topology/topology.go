// Package topology models the static layout of a wireless ad hoc network:
// node positions, the unit-disk connectivity induced by a transmission
// range, and any out-of-band links (wormhole tunnels) layered on top.
//
// The paper's "k-tier" systems — each node can communicate with its
// neighbors up to k (grid) hops away — are reproduced by setting the radio
// range to k grid spacings plus a small epsilon.
package topology

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"samnet/internal/geom"
)

// NodeID identifies a node within one Topology. IDs are dense, starting at 0,
// in the order nodes were added.
type NodeID int

// None is the sentinel for "no node".
const None NodeID = -1

// RangeEpsilon is added to k grid spacings when deriving the radio range for
// a k-tier system, so that nodes exactly k units apart are neighbors while
// diagonal nodes at distance sqrt(2)k are not (for k=1).
const RangeEpsilon = 1e-3

// TierRange returns the unit-disk radius of a k-tier system on a grid with
// the given spacing.
func TierRange(k int, spacing float64) float64 {
	return float64(k)*spacing + RangeEpsilon
}

// Link is an undirected edge between two nodes, stored with A < B so that
// links compare equal regardless of direction.
type Link struct {
	A, B NodeID
}

// MkLink returns the normalized undirected link between a and b.
func MkLink(a, b NodeID) Link {
	if a > b {
		a, b = b, a
	}
	return Link{A: a, B: b}
}

// Other returns the endpoint of l that is not id, or None if id is not an
// endpoint.
func (l Link) Other(id NodeID) NodeID {
	switch id {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	return None
}

// String implements fmt.Stringer.
func (l Link) String() string { return fmt.Sprintf("%d-%d", l.A, l.B) }

// Topology is a node layout plus connectivity. It is not safe for
// concurrent mutation; concurrent reads are fine once adjacency is built
// (Freeze, or any read method, builds it).
//
// Neighbor lists are copy-on-write: once handed out, a list is never edited.
// Adding or removing a tunnel replaces the two endpoint lists with fresh
// copies, and moving or adding a node rebuilds every list, so a slice
// returned by Neighbors keeps its contents for as long as the caller holds
// it. The simulator relies on this to share neighbor lists in queued
// deliveries, and the grid builders to share them between clones.
type Topology struct {
	name   string
	pos    []geom.Point
	radius float64
	extra  map[Link]bool // out-of-band links (wormhole tunnels)
	adj    [][]NodeID    // lazily built; nil when stale
}

// New returns an empty topology whose radio range is radius.
func New(name string, radius float64) *Topology {
	if radius <= 0 {
		panic("topology: radius must be positive")
	}
	return &Topology{
		name:   name,
		radius: radius,
		extra:  make(map[Link]bool),
	}
}

// Name returns the human-readable topology name ("cluster", "uniform6x6", ...).
func (t *Topology) Name() string { return t.name }

// Radius returns the radio range.
func (t *Topology) Radius() float64 { return t.radius }

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.pos) }

// AddNode appends a node at p and returns its id.
func (t *Topology) AddNode(p geom.Point) NodeID {
	t.pos = append(t.pos, p)
	t.adj = nil
	return NodeID(len(t.pos) - 1)
}

// Pos returns the position of id.
func (t *Topology) Pos(id NodeID) geom.Point { return t.pos[id] }

// SetPos moves node id to p and invalidates the adjacency cache. The
// mobility models use it between discoveries; moving nodes mid-simulation
// is not supported (a discovery sees one frozen topology, which matches the
// paper's quasi-static assumption).
func (t *Topology) SetPos(id NodeID, p geom.Point) {
	t.checkID(id)
	t.pos[id] = p
	t.adj = nil
}

// Positions returns a copy of all node positions indexed by NodeID.
func (t *Topology) Positions() []geom.Point {
	out := make([]geom.Point, len(t.pos))
	copy(out, t.pos)
	return out
}

// AddExtraLink installs an out-of-band link between a and b regardless of
// their distance. Wormhole tunnels are modeled this way: the two attacker
// nodes behave like one-hop neighbors no matter how far apart they sit.
// Adding a link that is already present is a no-op.
func (t *Topology) AddExtraLink(a, b NodeID) {
	if a == b {
		panic("topology: self link")
	}
	t.checkID(a)
	t.checkID(b)
	l := MkLink(a, b)
	if t.extra[l] {
		return
	}
	t.extra[l] = true
	if t.adj != nil && !t.InRange(a, b) {
		t.adj[a] = insertSorted(make([]NodeID, 0, len(t.adj[a])+1), t.adj[a], b)
		t.adj[b] = insertSorted(make([]NodeID, 0, len(t.adj[b])+1), t.adj[b], a)
	}
}

// RemoveExtraLink removes a previously installed out-of-band link. It is a
// no-op if the link is not present.
func (t *Topology) RemoveExtraLink(a, b NodeID) {
	l := MkLink(a, b)
	if !t.extra[l] {
		return
	}
	delete(t.extra, l)
	if t.adj != nil && !t.InRange(a, b) {
		t.adj[a] = withoutNeighbor(t.adj[a], b)
		t.adj[b] = withoutNeighbor(t.adj[b], a)
	}
}

// HasExtraLink reports whether an out-of-band link exists between a and b.
func (t *Topology) HasExtraLink(a, b NodeID) bool { return t.extra[MkLink(a, b)] }

// ExtraLinks returns all out-of-band links in deterministic order.
func (t *Topology) ExtraLinks() []Link {
	out := make([]Link, 0, len(t.extra))
	for l := range t.extra {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// InRange reports whether a and b are within radio range of each other
// (excluding out-of-band links).
func (t *Topology) InRange(a, b NodeID) bool {
	if a == b {
		return false
	}
	return t.pos[a].Dist2(t.pos[b]) <= t.radius*t.radius
}

// Adjacent reports whether a and b share a link, via radio or tunnel.
func (t *Topology) Adjacent(a, b NodeID) bool {
	return t.InRange(a, b) || t.extra[MkLink(a, b)]
}

// Neighbors returns the neighbor list of id in ascending order. The returned
// slice is shared; callers must not modify it.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	t.checkID(id)
	t.build()
	return t.adj[id]
}

// Degree returns the number of neighbors of id.
func (t *Topology) Degree(id NodeID) int { return len(t.Neighbors(id)) }

// Links returns every link in the topology (radio and tunnel), each once,
// in deterministic order.
func (t *Topology) Links() []Link {
	t.build()
	var out []Link
	for a := range t.adj {
		for _, b := range t.adj[a] {
			if NodeID(a) < b {
				out = append(out, Link{A: NodeID(a), B: b})
			}
		}
	}
	return out
}

// Freeze forces adjacency construction now, so that later concurrent reads
// never race on the lazy build.
func (t *Topology) Freeze() { t.build() }

func (t *Topology) checkID(id NodeID) {
	if id < 0 || int(id) >= len(t.pos) {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", id, len(t.pos)))
	}
}

// build fills the radio adjacency in one scan of the node pairs, into a
// single backing array sized by a first, counting scan. Scanning i in
// ascending order appends every list's entries in ascending order, so no
// sort is needed; tunnels are then merged by sorted insert, and a tunnel
// that doubles a radio link changes no list.
func (t *Topology) build() {
	if t.adj != nil {
		return
	}
	n := len(t.pos)
	r2 := t.radius * t.radius
	deg := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.pos[i].Dist2(t.pos[j]) <= r2 {
				deg[i]++
				deg[j]++
				total += 2
			}
		}
	}
	for l := range t.extra {
		if !t.InRange(l.A, l.B) {
			deg[l.A]++
			deg[l.B]++
			total += 2
		}
	}
	backing := make([]NodeID, total)
	adj := make([][]NodeID, n)
	off := 0
	for i, d := range deg {
		// Capacity-capped, so a stray append can never spill into the
		// next node's list.
		adj[i] = backing[off : off : off+d]
		off += d
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.pos[i].Dist2(t.pos[j]) <= r2 {
				adj[i] = append(adj[i], NodeID(j))
				adj[j] = append(adj[j], NodeID(i))
			}
		}
	}
	for l := range t.extra {
		if !t.InRange(l.A, l.B) {
			adj[l.A] = insertSorted(adj[l.A], adj[l.A], l.B)
			adj[l.B] = insertSorted(adj[l.B], adj[l.B], l.A)
		}
	}
	t.adj = adj
}

// insertSorted writes the sorted list s with v inserted in order into dst
// and returns it. dst must have capacity for len(s)+1 entries; it may alias
// s, which build uses to insert into a list's spare capacity.
func insertSorted(dst, s []NodeID, v NodeID) []NodeID {
	i, _ := slices.BinarySearch(s, v)
	dst = dst[:len(s)+1]
	copy(dst[i+1:], s[i:])
	copy(dst[:i], s[:i])
	dst[i] = v
	return dst
}

// withoutNeighbor returns a fresh copy of the sorted list s without v,
// which s must contain.
func withoutNeighbor(s []NodeID, v NodeID) []NodeID {
	i, _ := slices.BinarySearch(s, v)
	out := make([]NodeID, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// clone returns a copy of t that can be mutated independently. The neighbor
// lists themselves are shared, which copy-on-write makes safe: t's lists are
// never edited, and the clone replaces rather than edits its own.
func (t *Topology) clone() *Topology {
	return &Topology{
		name:   t.name,
		pos:    slices.Clone(t.pos),
		radius: t.radius,
		extra:  maps.Clone(t.extra),
		adj:    slices.Clone(t.adj),
	}
}
