package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"samnet/internal/geom"
	"samnet/internal/topology"
)

// This file checks the engine's batched delivery (one heap entry per
// broadcast) against refNet, a reference that schedules one queue entry per
// receiver and always runs the entry with the least (at, seq). Both run the
// same randomized scenario; every dispatch, timer and callback must happen in
// the same order at the same time, and every counter must agree.

// simAPI is the surface the scenario drives. *Network implements it.
type simAPI interface {
	Now() Time
	Broadcast(from topology.NodeID, pkt Packet)
	Unicast(from, to topology.NodeID, pkt Packet)
	Schedule(d Time, fn func())
	ScheduleTimer(d Time, h TimerHandler, id uint64)
}

// refEvent is one reference queue entry: a single receiver, a timer or a
// callback.
type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	th       TimerHandler
	tid      uint64
	from, to topology.NodeID
	pkt      Packet
}

// refNet reimplements Network's send and receive rules over a plain queue.
type refNet struct {
	topo      *topology.Topology
	cfg       Config
	rng       *rand.Rand
	q         []refEvent
	now       Time
	seq       uint64
	processed uint64
	tx, rx    []int64
	lost      int64
	dropped   int64
	factor    map[topology.NodeID]float64
	linkDelay map[topology.Link]Time
	drop      DropFunc
	recv      func(api simAPI, self, from topology.NodeID, pkt Packet)
}

func newRefNet(topo *topology.Topology, cfg Config) *refNet {
	cfg.defaults()
	return &refNet{
		topo:      topo,
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, simStream)),
		tx:        make([]int64, topo.N()),
		rx:        make([]int64, topo.N()),
		factor:    map[topology.NodeID]float64{},
		linkDelay: map[topology.Link]Time{},
	}
}

func (r *refNet) Now() Time { return r.now }

func (r *refNet) push(ev refEvent) {
	r.seq++
	ev.seq = r.seq
	r.q = append(r.q, ev)
}

func (r *refNet) Schedule(d Time, fn func()) { r.push(refEvent{at: r.now + d, fn: fn}) }

func (r *refNet) ScheduleTimer(d Time, h TimerHandler, id uint64) {
	r.push(refEvent{at: r.now + d, th: h, tid: id})
}

func (r *refNet) txDelay(from topology.NodeID) Time {
	d := r.cfg.HopDelay + Time(r.rng.Float64()*r.cfg.Jitter)
	if f, ok := r.factor[from]; ok {
		d *= Time(f)
	}
	return d
}

func (r *refNet) deliver(from, to topology.NodeID, pkt Packet, delay Time) {
	if r.cfg.LossRate > 0 && r.rng.Float64() < r.cfg.LossRate {
		r.lost++
		return
	}
	delay += r.linkDelay[topology.MkLink(from, to)]
	r.push(refEvent{at: r.now + delay, from: from, to: to, pkt: pkt})
}

func (r *refNet) Broadcast(from topology.NodeID, pkt Packet) {
	r.tx[from]++
	delay := r.txDelay(from)
	for _, to := range r.topo.Neighbors(from) {
		r.deliver(from, to, pkt, delay)
	}
}

func (r *refNet) Unicast(from, to topology.NodeID, pkt Packet) {
	r.tx[from]++
	r.deliver(from, to, pkt, r.txDelay(from))
}

// runUntil runs the entry with the least (at, seq) until none is due.
func (r *refNet) runUntil(deadline Time) {
	for {
		best := -1
		for i := range r.q {
			if best < 0 || r.q[i].at < r.q[best].at ||
				(r.q[i].at == r.q[best].at && r.q[i].seq < r.q[best].seq) {
				best = i
			}
		}
		if best < 0 || r.q[best].at > deadline {
			break
		}
		ev := r.q[best]
		r.q[best] = r.q[len(r.q)-1]
		r.q = r.q[:len(r.q)-1]
		r.now = ev.at
		r.processed++
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.th != nil:
			ev.th.Timer(ev.tid)
		default:
			if r.drop != nil && r.drop(nil, ev.from, ev.to, ev.pkt) {
				r.dropped++
				continue
			}
			r.rx[ev.to]++
			r.recv(r, ev.to, ev.from, ev.pkt)
		}
	}
	if deadline != Forever && deadline > r.now {
		r.now = deadline
	}
}

// diffPkt is the scenario's packet: which flood it belongs to, its hop count
// and a per-run unique id.
type diffPkt struct {
	flood, hop, id int
}

// logEntry is one observable step: a dispatch (kind 'd'), a timer ('t') or a
// callback ('c').
type logEntry struct {
	kind     byte
	now      Time
	from, to topology.NodeID
	pkt      Packet
	id       uint64
}

// diffCase is one randomized scenario: a topology recipe plus the network
// configuration and the attack hooks applied on both sides.
type diffCase struct {
	seed       uint64
	nodes      int
	radius     float64
	pos        []geom.Point
	extra      []topology.Link
	cfg        Config
	factors    map[topology.NodeID]float64
	linkDelays map[topology.Link]Time
	// late is added by a callback right after src's first broadcast, so it
	// exists between that send and its arrival.
	late topology.Link
	src  topology.NodeID
}

func (c *diffCase) topo() *topology.Topology {
	t := topology.New("diff", c.radius)
	for _, p := range c.pos {
		t.AddNode(p)
	}
	for _, l := range c.extra {
		t.AddExtraLink(l.A, l.B)
	}
	t.Freeze()
	return t
}

func newDiffCase(seed uint64) *diffCase {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	c := &diffCase{seed: seed, nodes: 6 + rng.IntN(25), radius: 1.5 + rng.Float64()}
	side := 2 + rng.Float64()*4
	for i := 0; i < c.nodes; i++ {
		c.pos = append(c.pos, geom.Pt(rng.Float64()*side, rng.Float64()*side))
	}
	node := func() topology.NodeID { return topology.NodeID(rng.IntN(c.nodes)) }
	pair := func() topology.Link {
		a := node()
		b := node()
		for b == a {
			b = node()
		}
		return topology.MkLink(a, b)
	}
	for i := rng.IntN(3); i > 0; i-- {
		c.extra = append(c.extra, pair())
	}
	// The late link joins src to a node out of its range where there is one,
	// so src's first broadcast and its arrival see different neighbor lists.
	c.src = node()
	t := c.topo()
	c.late = topology.MkLink(c.src, (c.src+1)%topology.NodeID(c.nodes))
	for i := 0; i < c.nodes; i++ {
		if id := topology.NodeID(i); id != c.src && !t.Adjacent(c.src, id) {
			c.late = topology.MkLink(c.src, id)
			break
		}
	}

	switch rng.IntN(4) {
	case 1:
		c.cfg.HopDelay = ExplicitZero
	case 2:
		c.cfg.Jitter = ExplicitZero
	case 3: // every delivery at the instant it is sent: only seq orders them
		c.cfg.HopDelay, c.cfg.Jitter = ExplicitZero, ExplicitZero
	}
	if rng.IntN(2) == 1 {
		c.cfg.LossRate = 0.3
	}
	c.cfg.Seed = rng.Uint64()
	c.factors = map[topology.NodeID]float64{}
	for i := rng.IntN(3); i > 0; i-- {
		c.factors[node()] = 0.25 + rng.Float64()*2
	}
	c.linkDelays = map[topology.Link]Time{}
	if rng.IntN(2) == 1 {
		c.linkDelays[c.late] = Time(rng.IntN(3))
		for i := rng.IntN(3); i > 0; i-- {
			c.linkDelays[pair()] = Time(rng.Float64() * 3)
		}
	}
	return c
}

// diffRun is the per-run scenario state. Every decision is a pure function
// of that state and the event being handled, so two engines that dispatch
// in the same order make the same decisions.
type diffRun struct {
	c      *diffCase
	topo   *topology.Topology
	api    simAPI
	log    []logEntry
	seen   map[[2]int]bool // (flood, node) pairs that already rebroadcast
	nextID int
	budget int // extra unicasts, timers and callbacks still allowed
}

func (r *diffRun) pkt(flood, hop int) diffPkt {
	r.nextID++
	return diffPkt{flood: flood, hop: hop, id: r.nextID}
}

func (r *diffRun) mix(a, b, c int) uint64 {
	h := r.c.seed*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9 +
		uint64(b)*0x94d049bb133111eb + uint64(c)
	h ^= h >> 31
	return h * 0xd6e8feb86659fd93
}

func (r *diffRun) recv(api simAPI, self, from topology.NodeID, pkt Packet) {
	p := pkt.(diffPkt)
	if k := [2]int{p.flood, int(self)}; !r.seen[k] && p.hop < 8 {
		r.seen[k] = true
		api.Broadcast(self, r.pkt(p.flood, p.hop+1))
	}
	if r.budget <= 0 {
		return
	}
	h := r.mix(int(self), int(from), p.id)
	switch h % 6 {
	case 0:
		r.budget--
		api.ScheduleTimer(Time(h>>8%3)/2, r, uint64(p.id))
	case 1:
		r.budget--
		api.Schedule(0, func() {
			r.log = append(r.log, logEntry{kind: 'c', now: api.Now(), id: uint64(p.id)})
		})
	case 2:
		if nb := r.topo.Neighbors(self); len(nb) > 0 {
			r.budget--
			api.Unicast(self, nb[int(h>>8)%len(nb)], r.pkt(-1, p.hop+1))
		}
	}
}

// Timer logs the timer and, on every other id, starts a short flood.
func (r *diffRun) Timer(id uint64) {
	r.log = append(r.log, logEntry{kind: 't', now: r.api.Now(), id: id})
	if id%2 == 0 {
		self := topology.NodeID(id % uint64(r.topo.N()))
		r.api.Broadcast(self, r.pkt(int(id)+1000, 5))
	}
}

func (r *diffRun) drop(_ *Network, from, to topology.NodeID, pkt Packet) bool {
	r.log = append(r.log, logEntry{kind: 'd', now: r.api.Now(), from: from, to: to, pkt: pkt})
	return r.mix(int(from), int(to), pkt.(diffPkt).id)%11 == 0
}

// start schedules the scenario's initial traffic: src's flood (with the late
// link added right after it is sent), a second flood, a timer and a
// callback, all before the first RunUntil.
func (r *diffRun) start() {
	c := r.c
	r.api.Schedule(0, func() {
		r.api.Broadcast(c.src, r.pkt(0, 0))
		r.topo.AddExtraLink(c.late.A, c.late.B)
	})
	second := topology.NodeID((int(c.src) + 1) % c.nodes)
	r.api.Schedule(0, func() { r.api.Broadcast(second, r.pkt(1, 0)) })
	r.api.ScheduleTimer(0, r, 2)
	r.api.Schedule(0.5, func() { r.api.Unicast(c.late.A, c.late.B, r.pkt(-1, 0)) })
}

type diffResult struct {
	log           []logEntry
	now           Time
	processed     uint64
	lost, dropped int64
	tx, rx        []int64
}

func (c *diffCase) newRun(topo *topology.Topology) *diffRun {
	return &diffRun{c: c, topo: topo, seen: map[[2]int]bool{}, budget: 60}
}

func (c *diffCase) runEngine() diffResult {
	topo := c.topo()
	r := c.newRun(topo)
	net := NewNetwork(topo, c.cfg)
	r.api = net
	for id, f := range c.factors {
		net.SetDelayFactor(id, f)
	}
	for l, d := range c.linkDelays {
		net.SetLinkDelay(l.A, l.B, d)
	}
	net.SetDropFunc(r.drop)
	net.SetAllHandlers(HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
		r.recv(n, self, from, pkt)
	}))
	r.start()
	net.RunUntil(1.5)
	net.Run()
	res := diffResult{log: r.log, now: net.Now(), processed: net.Processed(),
		lost: net.Lost(), dropped: net.Dropped()}
	for i := 0; i < topo.N(); i++ {
		res.tx = append(res.tx, net.TxCount(topology.NodeID(i)))
		res.rx = append(res.rx, net.RxCount(topology.NodeID(i)))
	}
	return res
}

func (c *diffCase) runReference() diffResult {
	topo := c.topo()
	r := c.newRun(topo)
	ref := newRefNet(topo, c.cfg)
	r.api = ref
	for id, f := range c.factors {
		ref.factor[id] = f
	}
	for l, d := range c.linkDelays {
		if d > 0 {
			ref.linkDelay[l] = d
		}
	}
	ref.drop = r.drop
	ref.recv = r.recv
	r.start()
	ref.runUntil(1.5)
	ref.runUntil(Forever)
	return diffResult{log: r.log, now: ref.now, processed: ref.processed,
		lost: ref.lost, dropped: ref.dropped, tx: ref.tx, rx: ref.rx}
}

func TestEngineMatchesPerReceiverReference(t *testing.T) {
	sawZeroTies, sawLoss, sawLinkDelay := false, false, false
	for seed := uint64(1); seed <= 300; seed++ {
		c := newDiffCase(seed)
		got, want := c.runEngine(), c.runReference()
		label := fmt.Sprintf("seed %d (%d nodes, cfg %+v)", seed, c.nodes, c.cfg)
		if len(got.log) != len(want.log) {
			t.Fatalf("%s: %d log entries, reference %d", label, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("%s: step %d is %+v, reference %+v", label, i, got.log[i], want.log[i])
			}
		}
		if got.now != want.now || got.processed != want.processed ||
			got.lost != want.lost || got.dropped != want.dropped {
			t.Fatalf("%s: now/processed/lost/dropped %v/%d/%d/%d, reference %v/%d/%d/%d", label,
				got.now, got.processed, got.lost, got.dropped,
				want.now, want.processed, want.lost, want.dropped)
		}
		for i := range want.tx {
			if got.tx[i] != want.tx[i] || got.rx[i] != want.rx[i] {
				t.Fatalf("%s: node %d tx/rx %d/%d, reference %d/%d", label, i,
					got.tx[i], got.rx[i], want.tx[i], want.rx[i])
			}
		}
		if c.cfg.HopDelay < 0 && c.cfg.Jitter < 0 && len(want.log) > 20 {
			sawZeroTies = true
		}
		sawLoss = sawLoss || want.lost > 0
		sawLinkDelay = sawLinkDelay || len(c.linkDelays) > 0
	}
	if !sawZeroTies || !sawLoss || !sawLinkDelay {
		t.Errorf("cases did not cover zero-delay ties (%v), loss (%v) and link delays (%v)",
			sawZeroTies, sawLoss, sawLinkDelay)
	}
}
