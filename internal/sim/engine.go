// Package sim is a deterministic discrete-event simulator for broadcast
// wireless networks. It provides a virtual clock, an event queue with
// stable tie-breaking, and a Network that delivers packets between nodes
// over unit-disk links (plus any out-of-band tunnel links), counting every
// transmission and reception — the paper's route-discovery overhead metric.
//
// Determinism: every run is fully determined by its seed. Events at equal
// times fire in scheduling order (a monotone sequence number breaks ties),
// and all randomness flows from one seeded PCG source.
package sim

import (
	"math"

	"samnet/internal/topology"
)

// Time is virtual simulation time. One unit is one nominal hop transmission
// delay (see Config.HopDelay).
type Time float64

// Forever is a time later than any event a simulation schedules.
const Forever Time = Time(math.MaxFloat64)

// TimerHandler receives timer events scheduled with ScheduleTimer. The id is
// whatever the scheduler passed — protocol timeout wheels (the verify probe
// engine's retry timers) key their pending state on it.
type TimerHandler interface {
	Timer(id uint64)
}

// key is one heap entry: the (at, seq) order plus the slab slot holding the
// entry's payload. It holds no pointers, so a sift moves plain memory and
// runs no GC write barriers (TestHeapKeyHasNoPointers pins this).
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// payload is what a heap entry carries. It lives in the engine's slab,
// written once when the entry is pushed and cleared once when it fires. One
// field group is set: a scheduled callback (fn), a timer (th, tid), or a
// delivery of pkt from node "from" to every receiver in "to", in order.
type payload struct {
	fn   func()
	th   TimerHandler
	tid  uint64
	pkt  Packet
	from topology.NodeID
	to   []topology.NodeID // receivers: a topology neighbor list, or own
	own  []topology.NodeID // receiver buffer; keeps its capacity across reuse
}

// Engine is the event loop. The zero value is ready to use.
//
// The queue is a hand-rolled 4-ary min-heap of pointer-free keys rather than
// container/heap: no interface boxing per push/pop, the shallower tree
// roughly halves the sift depth for the flood-sized queues discovery builds,
// and payloads stay put in the slab while their keys move. Heap order is
// (at, seq); since every entry's (at, seq) key is unique, pop order — and
// therefore every simulation output — is independent of arity.
//
// A delivery entry stands for a whole broadcast: it reserves one seq per
// receiver, consecutive, starting at its key's seq, and fires them in
// neighbor order. No other entry can hold a seq inside that range, so the
// batch dispatches exactly as one entry per receiver ordered on (at, seq)
// would, same-instant ties and packets sent by handlers mid-batch included.
type Engine struct {
	pq        []key
	slab      []payload
	free      []uint32 // released slab slots
	now       Time
	seq       uint64
	processed uint64

	// net is set when the engine is embedded in a Network; delivery entries
	// are dispatched to it.
	net *Network
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far: callbacks, timers
// and deliveries, where a broadcast counts once per receiver it reached.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of heap entries not yet executed. A broadcast is
// one entry however many receivers it has.
func (e *Engine) Pending() int { return len(e.pq) }

// Schedule runs fn after delay d. A negative delay panics: the simulator
// does not travel backwards.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s := e.alloc()
	e.slab[s].fn = fn
	e.seq++
	e.push(key{at: e.now + d, seq: e.seq, slot: s})
}

// ScheduleTimer fires h.Timer(id) after delay d. Like deliveries (and unlike
// Schedule's closures) the timer needs no closure, so arming a timeout
// allocates nothing. Ties against deliveries at the same instant resolve by
// scheduling order, as for every other event.
func (e *Engine) ScheduleTimer(d Time, h TimerHandler, id uint64) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if h == nil {
		panic("sim: nil timer handler")
	}
	s := e.alloc()
	e.slab[s].th, e.slab[s].tid = h, id
	e.seq++
	e.push(key{at: e.now + d, seq: e.seq, slot: s})
}

// pushDelivery enqueues the delivery of pkt from "from" to every receiver in
// to, at time at, in a slab slot s taken from alloc. It reserves one seq per
// receiver. The entry keeps "to", which must not change until it fires.
func (e *Engine) pushDelivery(at Time, s uint32, from topology.NodeID, pkt Packet, to []topology.NodeID) {
	p := &e.slab[s]
	p.from, p.pkt, p.to = from, pkt, to
	e.push(key{at: at, seq: e.seq + 1, slot: s})
	e.seq += uint64(len(to))
}

// alloc returns a cleared slab slot, reusing released slots (and their
// receiver buffers) first.
func (e *Engine) alloc() uint32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	if len(e.slab) < cap(e.slab) {
		e.slab = e.slab[:len(e.slab)+1]
	} else {
		e.slab = append(e.slab, payload{})
	}
	return uint32(len(e.slab) - 1)
}

// clear drops slot s's references so the collector can reclaim them, and
// empties its receiver buffer.
func (e *Engine) clear(s uint32) {
	p := &e.slab[s]
	p.fn, p.th, p.pkt, p.to = nil, nil, nil, nil
	p.own = p.own[:0]
}

// release clears slot s and returns it to the free list.
func (e *Engine) release(s uint32) {
	e.clear(s)
	e.free = append(e.free, s)
}

// reset rewinds the engine to its zero state, keeping the capacity of the
// queue, the slab and the slab's receiver buffers. It must not run inside a
// packet handler: the delivery being dispatched still holds its slab slot.
func (e *Engine) reset() {
	for _, k := range e.pq {
		e.clear(k.slot)
	}
	e.pq = e.pq[:0]
	e.slab = e.slab[:0]
	e.free = e.free[:0]
	e.now, e.seq, e.processed = 0, 0, 0
}

func (e *Engine) push(k key) {
	e.pq = append(e.pq, k)
	pq := e.pq
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !k.before(pq[parent]) {
			break
		}
		pq[i] = pq[parent]
		i = parent
	}
	pq[i] = k
}

func (e *Engine) pop() key {
	pq := e.pq
	top := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq = pq[:n]
	e.pq = pq
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if pq[c].before(pq[min]) {
				min = c
			}
		}
		if !pq[min].before(last) {
			break
		}
		pq[i] = pq[min]
		i = min
	}
	if n > 0 {
		pq[i] = last
	}
	return top
}

// fire executes one popped entry at its timestamp. A delivery entry
// dispatches every receiver before its slot is released, so packets the
// handlers send meanwhile cannot reuse its receiver buffer.
func (e *Engine) fire(k key) {
	e.now = k.at
	p := &e.slab[k.slot]
	if fn := p.fn; fn != nil {
		e.release(k.slot)
		e.processed++
		fn()
		return
	}
	if th := p.th; th != nil {
		id := p.tid
		e.release(k.slot)
		e.processed++
		th.Timer(id)
		return
	}
	from, pkt, rcv := p.from, p.pkt, p.to
	for _, to := range rcv {
		e.processed++
		e.net.dispatch(from, to, pkt)
	}
	e.release(k.slot)
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with time <= deadline and leaves later events
// queued. A finite deadline then becomes the clock, even when the queue
// drained earlier: an event at 1 run until 3 leaves Now() at 3. Run's
// deadline, Forever, leaves the clock at the last event's time. RunUntil
// returns the current time.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		e.fire(e.pop())
	}
	if deadline != Forever && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// Step executes exactly one heap entry if any is pending and reports whether
// it did. A broadcast is one entry: Step delivers it to all its receivers.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	e.fire(e.pop())
	return true
}
