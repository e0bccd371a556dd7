package topology

// Graph utilities over a topology's connectivity: BFS distances, shortest
// paths and connectivity checks. The exported ones treat tunnels as ordinary
// one-hop links, matching how routing sees the network.

// BFSDist returns, for every node, its hop distance from src, or -1 if
// unreachable. The excluded set (may be nil) is treated as removed from the
// graph; src itself must not be excluded.
func (t *Topology) BFSDist(src NodeID, excluded map[NodeID]bool) []int {
	t.checkID(src)
	dist := make([]int, t.N())
	for i := range dist {
		dist[i] = -1
	}
	if excluded[src] {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if dist[v] == -1 && !excluded[v] {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopDist returns the hop distance between a and b, or -1 if disconnected.
func (t *Topology) HopDist(a, b NodeID) int {
	return t.BFSDist(a, nil)[b]
}

// ShortestPath returns one minimum-hop path from a to b inclusive of both
// endpoints, or nil if none exists. Ties break toward lower node ids, so the
// result is deterministic.
func (t *Topology) ShortestPath(a, b NodeID) []NodeID {
	t.checkID(a)
	t.checkID(b)
	if a == b {
		return []NodeID{a}
	}
	prev := make([]NodeID, t.N())
	for i := range prev {
		prev[i] = None
	}
	seen := make([]bool, t.N())
	seen[a] = true
	queue := []NodeID{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == b {
			break
		}
		for _, v := range t.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if !seen[b] {
		return nil
	}
	var rev []NodeID
	for v := b; v != None; v = prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Connected reports whether every node is reachable from node 0.
// An empty topology is trivially connected.
func (t *Topology) Connected() bool {
	if t.N() == 0 {
		return true
	}
	dist := t.BFSDist(0, nil)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// ConnectedWithout reports whether all non-excluded nodes remain mutually
// reachable when the excluded nodes are removed. It returns true when fewer
// than two nodes remain.
func (t *Topology) ConnectedWithout(excluded map[NodeID]bool) bool {
	var start NodeID = None
	remaining := 0
	for i := 0; i < t.N(); i++ {
		if !excluded[NodeID(i)] {
			remaining++
			if start == None {
				start = NodeID(i)
			}
		}
	}
	if remaining < 2 {
		return true
	}
	dist := t.BFSDist(start, excluded)
	for i := 0; i < t.N(); i++ {
		if !excluded[NodeID(i)] && dist[i] == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum hop distance from id to any reachable
// node.
func (t *Topology) Eccentricity(id NodeID) int {
	max := 0
	for _, d := range t.BFSDist(id, nil) {
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the maximum hop distance between any pair of connected
// nodes. It is O(n * edges); fine at paper scale.
func (t *Topology) Diameter() int {
	max := 0
	for i := 0; i < t.N(); i++ {
		if e := t.Eccentricity(NodeID(i)); e > max {
			max = e
		}
	}
	return max
}

// radioHopDist returns the hop distance between a and b over radio links
// only, or -1 if they are disconnected without tunnels.
func (t *Topology) radioHopDist(a, b NodeID) int {
	dist := make([]int, t.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []NodeID{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if dist[v] == -1 && t.InRange(u, v) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist[b]
}
