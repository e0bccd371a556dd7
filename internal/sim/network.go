package sim

import (
	"fmt"
	"math/rand/v2"

	"samnet/internal/topology"
)

// Packet is any protocol payload carried by the network. Protocols define
// their own concrete packet types; the network treats them opaquely.
type Packet interface{}

// Handler is the per-node protocol logic. Recv is invoked once per
// reception, at the virtual time the packet arrives.
type Handler interface {
	Recv(n *Network, self, from topology.NodeID, pkt Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(n *Network, self, from topology.NodeID, pkt Packet)

// Recv implements Handler.
func (f HandlerFunc) Recv(n *Network, self, from topology.NodeID, pkt Packet) {
	f(n, self, from, pkt)
}

// DropFunc decides whether a particular reception is lost. It models both
// link-level loss and malicious payload dropping (black/grey holes). Return
// true to drop the packet before the receiving handler sees it. The
// transmission is still counted; the reception is not.
type DropFunc func(n *Network, from, to topology.NodeID, pkt Packet) bool

// ExplicitZero requests a genuinely zero HopDelay or Jitter, which a literal
// zero cannot (zero means "use the default"). Any negative value is treated
// as zero, mirroring sam.DetectorConfig's explicit-zero convention.
const ExplicitZero = -1

// Config parameterizes a Network.
type Config struct {
	// HopDelay is the nominal transmission delay per hop (default 1; use
	// ExplicitZero for a zero-delay network).
	HopDelay Time
	// Jitter is the maximum extra uniform random delay added to each
	// broadcast, modeling MAC contention and breaking grid symmetry
	// (default 0.1; use ExplicitZero for a jitter-free network). All
	// receivers of one broadcast share the same jitter, as they would share
	// one on-air transmission.
	Jitter float64
	// LossRate is the probability that any single reception is lost to
	// channel noise (independent per receiver; default 0). Lost receptions
	// are counted as transmissions but not receptions, like attack drops.
	LossRate float64
	// Seed feeds the simulation's PCG random source.
	Seed uint64
}

func (c *Config) defaults() {
	switch {
	case c.HopDelay == 0:
		c.HopDelay = 1
	case c.HopDelay < 0:
		c.HopDelay = 0
	}
	switch {
	case c.Jitter == 0:
		c.Jitter = 0.1
	case c.Jitter < 0:
		c.Jitter = 0
	}
}

// simStream is the fixed PCG stream selector for simulation randomness; the
// seed alone distinguishes runs.
const simStream = 0x5a4d5e7b2f9c1d03

// Network couples an Engine with a topology, per-node handlers and
// transmission/reception counters.
type Network struct {
	Engine
	topo     *topology.Topology
	handlers []Handler
	rng      *rand.Rand
	pcg      *rand.PCG
	cfg      Config
	drop     DropFunc

	tx []int64 // transmissions per node
	rx []int64 // receptions per node

	// delayFactor scales a node's transmission delay (rushing attackers
	// transmit "faster" by skipping MAC politeness); nil means all 1.
	delayFactor []float64
	// factorSpare keeps a cleared delayFactor slice across Reset so reuse
	// cycles that re-arm attackers do not reallocate it.
	factorSpare []float64

	// linkDelay adds extra propagation delay to specific links — the
	// variable-latency out-of-band tunnels of complex wormhole attacks, where
	// the covert channel is slower than one radio hop. Nil means no link has
	// extra delay, keeping the hot delivery path a single nil check.
	linkDelay map[topology.Link]Time

	lost    int64 // receptions destroyed by channel loss
	dropped int64 // receptions destroyed by the drop hook (attacks)
	ids     uint64
}

// NewNetwork builds a network over topo. Handlers default to a no-op; set
// them with SetHandler before injecting traffic.
func NewNetwork(topo *topology.Topology, cfg Config) *Network {
	cfg.defaults()
	pcg := rand.NewPCG(cfg.Seed, simStream)
	n := &Network{
		topo:     topo,
		handlers: make([]Handler, topo.N()),
		rng:      rand.New(pcg),
		pcg:      pcg,
		cfg:      cfg,
		tx:       make([]int64, topo.N()),
		rx:       make([]int64, topo.N()),
	}
	n.Engine.net = n
	return n
}

// Reset rewinds the network to the pristine state NewNetwork(topo, cfg)
// with the given seed would produce — clock at zero, counters zeroed,
// handlers and drop/delay hooks cleared, RNG reseeded to the identical
// stream — while keeping every allocation (event queue, per-node slices)
// for reuse. It does NOT touch the topology: attacker tunnel links added to
// the topology survive a Reset, exactly as they survive building a fresh
// Network over the same topology. Reset and Retarget must not be called from
// a packet handler.
func (n *Network) Reset(seed uint64) {
	n.cfg.Seed = seed
	n.resetState()
}

// Retarget rebinds the network to a (possibly different) topology and a
// fresh config, reusing per-node slices when the node count allows. It is
// Reset for sweeps that rebuild their topology per run: afterwards the
// network is indistinguishable from NewNetwork(topo, cfg).
func (n *Network) Retarget(topo *topology.Topology, cfg Config) {
	cfg.defaults()
	n.topo = topo
	n.cfg = cfg
	if m := topo.N(); m != len(n.handlers) {
		n.handlers = make([]Handler, m)
		n.tx = make([]int64, m)
		n.rx = make([]int64, m)
		n.factorSpare = nil
	}
	n.resetState()
}

func (n *Network) resetState() {
	n.Engine.reset()
	n.pcg.Seed(n.cfg.Seed, simStream)
	for i := range n.handlers {
		n.handlers[i] = nil
	}
	for i := range n.tx {
		n.tx[i] = 0
		n.rx[i] = 0
	}
	if n.delayFactor != nil {
		n.factorSpare = n.delayFactor
	}
	n.delayFactor = nil
	n.linkDelay = nil
	n.drop = nil
	n.lost = 0
	n.dropped = 0
	n.ids = 0
}

// NextID returns a fresh nonzero identifier, unique within this network
// since construction or the last Reset/Retarget. Route discovery uses it
// for request ids, so packet traces depend only on the network's own
// history, never on global or cross-worker state.
func (n *Network) NextID() uint64 {
	n.ids++
	return n.ids
}

// Topology returns the underlying topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Rand returns the simulation's random source. Protocols needing randomness
// must draw from it so runs stay reproducible.
func (n *Network) Rand() *rand.Rand { return n.rng }

// SetHandler installs the protocol logic for node id.
func (n *Network) SetHandler(id topology.NodeID, h Handler) { n.handlers[id] = h }

// SetAllHandlers installs h on every node.
func (n *Network) SetAllHandlers(h Handler) {
	for i := range n.handlers {
		n.handlers[i] = h
	}
}

// SetDropFunc installs the loss/attack drop decision (nil disables).
func (n *Network) SetDropFunc(d DropFunc) { n.drop = d }

// SetDelayFactor scales node id's transmission delay. Factors below 1 model
// rushing attackers that skip MAC-level politeness to win duplicate-
// suppression races; factors above 1 model congested or weak transmitters.
func (n *Network) SetDelayFactor(id topology.NodeID, f float64) {
	if f <= 0 {
		panic("sim: delay factor must be positive")
	}
	if n.delayFactor == nil {
		if n.factorSpare != nil && len(n.factorSpare) == n.topo.N() {
			n.delayFactor, n.factorSpare = n.factorSpare, nil
		} else {
			n.delayFactor = make([]float64, n.topo.N())
		}
		for i := range n.delayFactor {
			n.delayFactor[i] = 1
		}
	}
	n.delayFactor[id] = f
}

// SetLinkDelay adds extra propagation delay to every delivery crossing the
// a-b link, in either direction, on top of the transmitter's normal delay.
// Wormhole scenarios model variable-latency tunnels with it: the out-of-band
// channel still collapses many radio hops into one link, but each crossing
// costs extra time — the delay evidence a timing-aware detector keys on.
// A non-positive extra clears the link's entry.
func (n *Network) SetLinkDelay(a, b topology.NodeID, extra Time) {
	l := topology.MkLink(a, b)
	if extra <= 0 {
		delete(n.linkDelay, l)
		return
	}
	if n.linkDelay == nil {
		n.linkDelay = make(map[topology.Link]Time, 4)
	}
	n.linkDelay[l] = extra
}

// Lost returns how many receptions channel noise destroyed.
func (n *Network) Lost() int64 { return n.lost }

// Dropped returns how many receptions the drop hook destroyed — black/grey
// hole payload drops and other malicious behaviour, as opposed to channel
// loss (Lost). Together with TotalTraffic these are the simulation's
// tx/rx/drop telemetry totals.
func (n *Network) Dropped() int64 { return n.dropped }

// TxCount returns the number of transmissions node id has performed.
func (n *Network) TxCount(id topology.NodeID) int64 { return n.tx[id] }

// RxCount returns the number of receptions at node id.
func (n *Network) RxCount(id topology.NodeID) int64 { return n.rx[id] }

// TotalTraffic returns the total transmissions and receptions summed over
// all nodes — the paper's Table II overhead metric.
func (n *Network) TotalTraffic() (tx, rx int64) {
	for i := range n.tx {
		tx += n.tx[i]
		rx += n.rx[i]
	}
	return tx, rx
}

// ResetCounters zeroes all traffic counters.
func (n *Network) ResetCounters() {
	for i := range n.tx {
		n.tx[i] = 0
		n.rx[i] = 0
	}
}

// Broadcast transmits pkt from node "from" to every current neighbor. The
// single on-air transmission is counted once; each neighbor that is not
// lost receives after HopDelay plus one shared jitter draw. The receivers are
// the neighbors at send time: a link added before the packet arrives does not
// change who receives it.
func (n *Network) Broadcast(from topology.NodeID, pkt Packet) {
	n.tx[from]++
	delay := n.txDelay(from)
	rcv := n.topo.Neighbors(from)
	if n.cfg.LossRate > 0 || n.linkDelay != nil {
		n.send(from, rcv, pkt, delay)
		return
	}
	// Every neighbor receives at one instant, so the entry can share the
	// topology's neighbor list: a topology change builds new lists rather
	// than modifying the old ones.
	if len(rcv) > 0 {
		n.pushDelivery(n.now+delay, n.alloc(), from, pkt, rcv)
	}
}

func (n *Network) txDelay(from topology.NodeID) Time {
	d := n.cfg.HopDelay + Time(n.rng.Float64()*n.cfg.Jitter)
	if n.delayFactor != nil {
		d *= Time(n.delayFactor[from])
	}
	return d
}

// Unicast transmits pkt from "from" to adjacent node "to". It panics if the
// nodes are not adjacent: routing bugs should fail loudly, not silently
// teleport packets.
func (n *Network) Unicast(from, to topology.NodeID, pkt Packet) {
	if !n.topo.Adjacent(from, to) {
		panic(fmt.Sprintf("sim: unicast between non-adjacent nodes %d and %d", from, to))
	}
	n.tx[from]++
	n.send(from, []topology.NodeID{to}, pkt, n.txDelay(from))
}

// send schedules one transmission's receptions: a single heap entry for
// every receiver arriving after delay, in rcv order, plus one entry for each
// receiver whose link delay makes it arrive later. Receivers are copied into
// the entries' own buffers.
func (n *Network) send(from topology.NodeID, rcv []topology.NodeID, pkt Packet, delay Time) {
	e := &n.Engine
	at := e.now + delay
	s := e.alloc()
	batch := e.slab[s].own
	for _, to := range rcv {
		// Channel loss is drawn at transmission time, per receiver in rcv
		// order, so the loss pattern is independent of handler scheduling.
		if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
			n.lost++
			continue
		}
		if n.linkDelay != nil {
			if t := e.now + (delay + n.linkDelay[topology.MkLink(from, to)]); t != at {
				d := e.alloc()
				own := append(e.slab[d].own, to)
				e.slab[d].own = own
				e.pushDelivery(t, d, from, pkt, own)
				continue
			}
		}
		batch = append(batch, to)
	}
	e.slab[s].own = batch
	if len(batch) == 0 {
		e.release(s)
		return
	}
	e.pushDelivery(at, s, from, pkt, batch)
}

// dispatch is the engine's callback for each receiver of a delivery entry:
// the receive-side half of send, at arrival time.
func (n *Network) dispatch(from, to topology.NodeID, pkt Packet) {
	if n.drop != nil && n.drop(n, from, to, pkt) {
		n.dropped++
		return
	}
	n.rx[to]++
	if h := n.handlers[to]; h != nil {
		h.Recv(n, to, from, pkt)
	}
}
