package routing

import (
	"slices"
	"sync"

	"samnet/internal/sim"
	"samnet/internal/topology"
)

// NodeState is the per-node, per-request bookkeeping the paper's forwarding
// rules consult: the hop count and incoming link of the first copy received,
// and how many copies the node has forwarded.
type NodeState struct {
	Seen      bool
	FirstHops int
	FirstFrom topology.NodeID
	Forwarded int

	// gen tags which discovery last touched this entry; state is stored in
	// a dense generation-tagged slice, so starting a discovery is O(1)
	// instead of clearing (or reallocating) a map.
	gen uint64
}

// reset clears the state in place for a new discovery.
func (st *NodeState) reset(gen uint64) {
	*st = NodeState{gen: gen}
}

// ForwardRule decides whether node self forwards an RREQ copy that arrived
// from neighbor from. st is this node's state for the request; st.Seen is
// false exactly on the first arrival (the framework sets Seen/FirstHops/
// FirstFrom after the call). Rules must not mutate q.
type ForwardRule func(self, from topology.NodeID, q *RREQ, st *NodeState) bool

// ForgeFunc is the Byzantine route-reply hook: when installed, it is
// consulted once per node on the first RREQ copy that node receives. prefix
// is the real path the request traversed, source first, self last. Returning
// a non-nil route makes the framework send an RREP for it immediately —
// mid-flood, before the destination has answered anything. The returned
// route must start with prefix (the reply walks those links backwards, and
// they must exist); everything after self may be fabricated. Returning nil
// forges nothing at this node. Honest nodes are modeled by a hook that
// ignores them.
type ForgeFunc func(self, from topology.NodeID, q *RREQ, prefix Route) Route

// FloodConfig parameterizes the shared flooding framework that DSR and MR
// are built from.
type FloodConfig struct {
	// Name labels the protocol in Discovery records.
	Name string
	// Rule is the duplicate-forwarding decision.
	Rule ForwardRule
	// MaxForwards caps how many RREQ copies one intermediate node forwards
	// per request (0 = unlimited). The paper's MR overhead (about twice
	// DSR's, Table II) implies the first copy plus roughly one duplicate
	// per node, so mr.Protocol caps it (mr.DefaultMaxForwards); the
	// unlimited variant is kept for the ablation benchmark.
	MaxForwards int
	// Reply chooses which collected routes the destination answers, in
	// the order returned. Nil answers every collected route (DSR
	// behaviour); mr.Protocol passes the maximally disjoint pair of SMR.
	Reply func([]Route) []Route
	// HopSlack applies the paper's hop-count rule at the destination too:
	// collected routes may exceed the first-arriving route's hop count by
	// at most HopSlack (negative disables the filter). The paper's
	// destination "waits a certain amount of time ... to collect all the
	// obtained routes"; bounding by hop count rather than wall-clock keeps
	// the collection deterministic. Zero (the default) keeps only routes as
	// short as the first one.
	HopSlack int
	// SuppressReplies skips the RREP phase entirely (used by analyses that
	// only need the route set).
	SuppressReplies bool
	// Avoid excludes nodes from the flood: an avoided node neither forwards
	// nor accepts request copies, so no discovered route traverses it. The
	// IDS's step-3 isolation feeds condemned attackers in through this hook
	// (verify.IsolationSet.Avoid). Nil means no exclusion.
	Avoid func(topology.NodeID) bool
	// Forge, when non-nil, lets Byzantine nodes answer route requests with
	// fabricated replies (see ForgeFunc). Nil — the default and the only
	// value honest workloads use — costs nothing.
	Forge ForgeFunc
}

// pathArena stores every RREQ path of one discovery as a parent-linked
// forest: entry i appends one node to the path ending at its parent entry,
// so all copies share common prefixes and forwarding costs O(1) bookkeeping
// instead of an O(hops) clone. Routes materialize as node slices only for
// the arrivals that survive the destination's filters.
type pathArena struct {
	node   []topology.NodeID
	parent []int32
	hops   []int32 // hop count of the path ending at this entry
	// sig is a 64-bit Bloom signature of the path ending at this entry:
	// bit node&63 is set for every node on it. A clear bit proves a node
	// absent without walking the path.
	sig []uint64
}

func (a *pathArena) reset() {
	a.node = a.node[:0]
	a.parent = a.parent[:0]
	a.hops = a.hops[:0]
	a.sig = a.sig[:0]
}

// sigBit is id's bit in a path signature.
func sigBit(id topology.NodeID) uint64 { return 1 << (uint64(id) & 63) }

// push appends node to the path ending at parent (-1 starts a path) and
// returns the new entry's ref.
func (a *pathArena) push(parent int32, node topology.NodeID) int32 {
	var h int32
	sig := sigBit(node)
	if parent >= 0 {
		h = a.hops[parent] + 1
		sig |= a.sig[parent]
	}
	a.node = append(a.node, node)
	a.parent = append(a.parent, parent)
	a.hops = append(a.hops, h)
	a.sig = append(a.sig, sig)
	return int32(len(a.node) - 1)
}

// contains reports whether the path ending at ref traverses id.
func (a *pathArena) contains(ref int32, id topology.NodeID) bool {
	if a.sig[ref]&sigBit(id) == 0 {
		return false
	}
	for i := ref; i >= 0; i = a.parent[i] {
		if a.node[i] == id {
			return true
		}
	}
	return false
}

// samePath reports whether refs p and q denote identical node sequences.
// Paths converge once they share an entry, so the walk short-circuits on
// shared prefixes.
func (a *pathArena) samePath(p, q int32) bool {
	if a.hops[p] != a.hops[q] {
		return false
	}
	for p != q {
		if a.node[p] != a.node[q] {
			return false
		}
		p, q = a.parent[p], a.parent[q]
	}
	return true
}

// appendPath writes the path ending at ref onto dst, source first.
func (a *pathArena) appendPath(dst Route, ref int32) Route {
	start := len(dst)
	for i := ref; i >= 0; i = a.parent[i] {
		dst = append(dst, a.node[i])
	}
	slices.Reverse(dst[start:])
	return dst
}

// rreqChunk sizes the RREQ arena's allocation unit.
const rreqChunk = 64

// rreqArena hands out RREQ structs in fixed chunks so their addresses stay
// stable while the arena grows — queued deliveries hold *RREQ across pushes.
type rreqArena struct {
	chunks [][]RREQ
	ci     int // chunk being filled
	used   int // entries used in chunks[ci]
}

func (a *rreqArena) reset() { a.ci, a.used = 0, 0 }

func (a *rreqArena) get() *RREQ {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]RREQ, rreqChunk))
	}
	q := &a.chunks[a.ci][a.used]
	a.used++
	if a.used == rreqChunk {
		a.ci++
		a.used = 0
	}
	return q
}

type arrival struct {
	ref int32 // arena entry of the full route (destination included)
	at  sim.Time
}

// floodRun is the Handler shared by every node during one discovery. Runs
// are pooled: all scratch (arena, per-node state, arrival list) survives
// into the next discovery, so a steady-state discovery's flood phase does
// not allocate.
type floodRun struct {
	cfg   FloodConfig
	reqID uint64
	src   topology.NodeID
	dst   topology.NodeID

	gen        uint64
	state      []NodeState // dense, indexed by NodeID, generation-tagged
	arena      pathArena
	rreqs      rreqArena
	arrivals   []arrival
	kept       []int32    // collectRoutes scratch: surviving arrival refs
	keptAt     []sim.Time // arrival times parallel to kept
	replies    []Route    // RREPs that made it back to the source
	replyTimes []sim.Time // source-side arrival time of each reply
}

var floodPool = sync.Pool{New: func() any { return new(floodRun) }}

func (f *floodRun) begin(net *sim.Network, src, dst topology.NodeID, cfg FloodConfig) {
	f.cfg = cfg
	f.reqID = net.NextID()
	f.src, f.dst = src, dst
	f.gen++
	if n := net.Topology().N(); n > len(f.state) {
		f.state = make([]NodeState, n)
	}
	f.arena.reset()
	f.rreqs.reset()
	f.arrivals = f.arrivals[:0]
	f.kept = f.kept[:0]
	f.keptAt = f.keptAt[:0]
	f.replies = f.replies[:0]
	f.replyTimes = f.replyTimes[:0]
}

// RunDiscovery floods one route request from src to dst over net using the
// given rule set, runs the simulation until the flood (and reply phase)
// completes, and returns the Discovery. It installs handlers on every node
// for the duration and clears them before returning; callers wanting a
// pristine network should pass a fresh (or Reset) one.
func RunDiscovery(net *sim.Network, src, dst topology.NodeID, cfg FloodConfig) *Discovery {
	if src == dst {
		panic("routing: src == dst")
	}
	run := floodPool.Get().(*floodRun)
	run.begin(net, src, dst, cfg)
	net.SetAllHandlers(run)

	q := run.rreqs.get()
	*q = RREQ{ReqID: run.reqID, Src: src, Dst: dst, arena: &run.arena, ref: run.arena.push(-1, src)}
	net.Broadcast(src, q)
	net.Run()

	d := &Discovery{Protocol: cfg.Name, Src: src, Dst: dst, FloodEnd: net.Now()}
	d.Routes, d.Times = run.collectRoutes()

	if !cfg.SuppressReplies && len(d.Routes) > 0 {
		toReply := d.Routes
		if cfg.Reply != nil {
			toReply = cfg.Reply(d.Routes)
		}
		for _, r := range toReply {
			sendRREP(net, run.reqID, r)
		}
		net.Run()
	}
	if len(run.replies) > 0 {
		// Forged replies arrive mid-flood, so this set can be non-empty even
		// when the destination never answered (or was never reached).
		d.Replies = append([]Route(nil), run.replies...)
		d.ReplyTimes = append([]sim.Time(nil), run.replyTimes...)
	}

	d.TxTotal, d.RxTotal = net.TotalTraffic()
	// The run goes back to the pool; nothing it owns may leak into the
	// Discovery (routes and replies are materialized copies) or stay
	// installed on the network.
	net.SetAllHandlers(nil)
	floodPool.Put(run)
	return d
}

// collectRoutes dedups arrivals and applies the hop slack, preserving
// arrival order, then materializes the survivors out of the arena into one
// backing slice, with each survivor's arrival time alongside.
func (f *floodRun) collectRoutes() ([]Route, []sim.Time) {
	if len(f.arrivals) == 0 {
		return nil, nil
	}
	maxHops := int32(^uint32(0) >> 1)
	if f.cfg.HopSlack >= 0 {
		maxHops = f.arena.hops[f.arrivals[0].ref] + int32(f.cfg.HopSlack)
	}
	f.kept = f.kept[:0]
	f.keptAt = f.keptAt[:0]
	total := 0
	for _, a := range f.arrivals {
		if f.arena.hops[a.ref] > maxHops {
			continue
		}
		dup := false
		for _, k := range f.kept {
			if f.arena.samePath(k, a.ref) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		f.kept = append(f.kept, a.ref)
		f.keptAt = append(f.keptAt, a.at)
		total += int(f.arena.hops[a.ref]) + 1
	}
	if len(f.kept) == 0 {
		return nil, nil
	}
	backing := make(Route, 0, total)
	routes := make([]Route, len(f.kept))
	for i, ref := range f.kept {
		start := len(backing)
		backing = f.arena.appendPath(backing, ref)
		// Full slice expressions cap each route at its own end, so an
		// append by a caller reallocates instead of clobbering a sibling.
		routes[i] = backing[start:len(backing):len(backing)]
	}
	return routes, append([]sim.Time(nil), f.keptAt...)
}

func sendRREP(net *sim.Network, reqID uint64, route Route) {
	if len(route) < 2 {
		return
	}
	last := len(route) - 1
	net.Unicast(route[last], route[last-1], &RREP{ReqID: reqID, Route: route.Clone(), Pos: last - 1})
}

// Recv implements sim.Handler.
func (f *floodRun) Recv(net *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
	switch p := pkt.(type) {
	case *RREQ:
		f.recvRREQ(net, self, from, p)
	case *RREP:
		f.recvRREP(net, self, p)
	case *Data:
		RelayData(net, self, p)
	case *ACK:
		RelayACK(net, self, p)
	}
}

// refFor returns q's path as an entry of f's arena, importing an explicit
// Path if the request came from outside the framework.
func (f *floodRun) refFor(q *RREQ) int32 {
	if q.arena == &f.arena {
		return q.ref
	}
	ref := int32(-1)
	for _, id := range q.Path {
		ref = f.arena.push(ref, id)
	}
	return ref
}

func (f *floodRun) recvRREQ(net *sim.Network, self, from topology.NodeID, q *RREQ) {
	if q.ReqID != f.reqID || self == f.src {
		return
	}
	// Isolation filter: copies at or from a condemned node die here, before
	// any state is touched, so no collected route can traverse one.
	if f.cfg.Avoid != nil && (f.cfg.Avoid(self) || f.cfg.Avoid(from)) {
		return
	}
	if self == f.dst {
		ref := f.arena.push(f.refFor(q), self)
		f.arrivals = append(f.arrivals, arrival{ref: ref, at: net.Now()})
		return
	}
	if q.PathContains(self) {
		return // loop: this copy already traversed us
	}
	st := &f.state[self]
	if st.gen != f.gen {
		st.reset(f.gen)
	}
	if f.cfg.Forge != nil && !st.Seen {
		// Byzantine route-reply forgery: a malicious node answers the first
		// copy it sees with a fabricated route, racing the destination's
		// honest replies. The real prefix is materialized for the hook (and
		// walked backwards by the RREP), so only the suffix can lie.
		prefix := f.arena.appendPath(nil, f.arena.push(f.refFor(q), self))
		if forged := f.cfg.Forge(self, from, q, prefix); forged != nil {
			if len(prefix) >= 2 {
				net.Unicast(self, prefix[len(prefix)-2], &RREP{ReqID: f.reqID, Route: forged, Pos: len(prefix) - 2})
			}
		}
	}
	forward := f.cfg.Rule(self, from, q, st)
	if forward && f.cfg.MaxForwards > 0 && st.Forwarded >= f.cfg.MaxForwards {
		forward = false
	}
	if !st.Seen {
		st.Seen = true
		st.FirstHops = q.Hops()
		st.FirstFrom = from
	}
	if forward {
		st.Forwarded++
		fwd := f.rreqs.get()
		*fwd = RREQ{ReqID: q.ReqID, Src: q.Src, Dst: q.Dst, arena: &f.arena, ref: f.arena.push(f.refFor(q), self)}
		net.Broadcast(self, fwd)
	}
}

func (f *floodRun) recvRREP(net *sim.Network, self topology.NodeID, p *RREP) {
	if p.ReqID != f.reqID || p.Route[p.Pos] != self {
		return
	}
	if p.Pos == 0 {
		// Reached the source: the route is usable.
		f.replies = append(f.replies, p.Route)
		f.replyTimes = append(f.replyTimes, net.Now())
		return
	}
	// Relay in place: the RREP has exactly one holder at a time, so
	// advancing Pos on the same packet saves an allocation per hop.
	p.Pos--
	net.Unicast(self, p.Route[p.Pos], p)
}

// RelayData forwards a source-routed Data packet one hop, or emits the ACK
// when it has reached the final hop. Exported so probe-only handlers can
// reuse it. The packet is relayed in place (Pos advances on the same
// struct); handlers must not retain it across deliveries.
func RelayData(net *sim.Network, self topology.NodeID, p *Data) {
	if p.Route[p.Pos] != self {
		return
	}
	if p.Pos == len(p.Route)-1 {
		// Destination: acknowledge end-to-end along the reverse route.
		if len(p.Route) >= 2 {
			ack := &ACK{SeqNo: p.SeqNo, Route: p.Route, Pos: len(p.Route) - 2}
			net.Unicast(self, p.Route[len(p.Route)-2], ack)
		}
		return
	}
	p.Pos++
	net.Unicast(self, p.Route[p.Pos], p)
}

// RelayACK walks an ACK backwards along its route, in place. When it
// reaches index 0 the source has its acknowledgement; AckSink handlers
// observe that.
func RelayACK(net *sim.Network, self topology.NodeID, p *ACK) {
	if p.Route[p.Pos] != self || p.Pos == 0 {
		return
	}
	p.Pos--
	net.Unicast(self, p.Route[p.Pos], p)
}

// ProbeResult reports one source-routed probe: whether the data packet's
// end-to-end ACK returned to the source.
type ProbeResult struct {
	Route Route
	Acked bool
}

// ProbeRoutes sends one Data packet along each route and reports which ACKs
// came back: it measures packet delivery over a route set. It installs
// minimal relay handlers on every node (replacing any discovery handlers)
// and uses the network's drop function, so black/grey hole attackers on a
// route surface as missing ACKs. The IDS's step 2 (probing a suspect pair)
// is verify.Probe, not this.
func ProbeRoutes(net *sim.Network, routes []Route) []ProbeResult {
	acked := make(map[uint64]bool)
	h := sim.HandlerFunc(func(n *sim.Network, self, from topology.NodeID, pkt sim.Packet) {
		switch p := pkt.(type) {
		case *Data:
			RelayData(n, self, p)
		case *ACK:
			if p.Route[p.Pos] == self && p.Pos == 0 && self == p.Route[0] {
				acked[p.SeqNo] = true
			} else {
				RelayACK(n, self, p)
			}
		}
	})
	net.SetAllHandlers(h)
	for i, r := range routes {
		if len(r) < 2 {
			continue
		}
		net.Unicast(r[0], r[1], &Data{SeqNo: uint64(i + 1), Route: r.Clone(), Pos: 1})
	}
	net.Run()
	out := make([]ProbeResult, len(routes))
	for i, r := range routes {
		out[i] = ProbeResult{Route: r, Acked: acked[uint64(i+1)]}
	}
	return out
}
