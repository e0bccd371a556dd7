package sim

import (
	"testing"

	"samnet/internal/geom"
	"samnet/internal/topology"
)

func lineTopo(n int) *topology.Topology {
	t := topology.New("line", 1.001)
	for i := 0; i < n; i++ {
		t.AddNode(geom.Pt(float64(i), 0))
	}
	return t
}

type recorder struct {
	got []string
}

func (r *recorder) Recv(n *Network, self, from topology.NodeID, pkt Packet) {
	r.got = append(r.got, pkt.(string))
}

func TestBroadcastReachesNeighborsOnly(t *testing.T) {
	topo := lineTopo(4)
	net := NewNetwork(topo, Config{Seed: 1})
	recs := make([]*recorder, 4)
	for i := range recs {
		recs[i] = &recorder{}
		net.SetHandler(topology.NodeID(i), recs[i])
	}
	net.Schedule(0, func() { net.Broadcast(1, "hello") })
	net.Run()
	if len(recs[0].got) != 1 || len(recs[2].got) != 1 {
		t.Error("neighbors of 1 should receive the broadcast")
	}
	if len(recs[1].got) != 0 {
		t.Error("sender should not receive its own broadcast")
	}
	if len(recs[3].got) != 0 {
		t.Error("node out of range received the broadcast")
	}
}

func TestBroadcastCountsOneTxPerAirTransmission(t *testing.T) {
	topo := lineTopo(3)
	net := NewNetwork(topo, Config{Seed: 1})
	net.Schedule(0, func() { net.Broadcast(1, "x") })
	net.Run()
	if got := net.TxCount(1); got != 1 {
		t.Errorf("TxCount = %d, want 1 (single on-air transmission)", got)
	}
	tx, rx := net.TotalTraffic()
	if tx != 1 || rx != 2 {
		t.Errorf("traffic = %d/%d, want 1/2", tx, rx)
	}
}

// TestBroadcastIsOneEntry pins what Pending and Step count: heap entries. A
// broadcast is one entry for all its receivers; Processed still counts each
// delivery.
func TestBroadcastIsOneEntry(t *testing.T) {
	net := NewNetwork(lineTopo(3), Config{Seed: 1})
	net.Broadcast(1, "x")
	if got := net.Pending(); got != 1 {
		t.Fatalf("Pending after a 2-receiver broadcast = %d, want 1", got)
	}
	if !net.Step() {
		t.Fatal("Step found no entry")
	}
	if tx, rx := net.TotalTraffic(); tx != 1 || rx != 2 || net.Processed() != 2 {
		t.Errorf("one Step: traffic %d/%d, Processed %d; want 1/2, 2", tx, rx, net.Processed())
	}
	if net.Pending() != 0 || net.Step() {
		t.Error("the broadcast left entries behind")
	}
}

func TestUnicast(t *testing.T) {
	topo := lineTopo(3)
	net := NewNetwork(topo, Config{Seed: 1})
	r := &recorder{}
	net.SetHandler(1, r)
	net.Schedule(0, func() { net.Unicast(0, 1, "direct") })
	net.Run()
	if len(r.got) != 1 || r.got[0] != "direct" {
		t.Errorf("unicast delivery = %v", r.got)
	}
	if net.RxCount(2) != 0 {
		t.Error("unicast should not reach third parties")
	}
}

func TestUnicastNonAdjacentPanics(t *testing.T) {
	topo := lineTopo(3)
	net := NewNetwork(topo, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("unicast between non-adjacent nodes should panic")
		}
	}()
	net.Unicast(0, 2, "nope")
}

func TestUnicastOverTunnel(t *testing.T) {
	topo := lineTopo(5)
	topo.AddExtraLink(0, 4)
	net := NewNetwork(topo, Config{Seed: 1})
	r := &recorder{}
	net.SetHandler(4, r)
	net.Schedule(0, func() { net.Unicast(0, 4, "tunneled") })
	net.Run()
	if len(r.got) != 1 {
		t.Error("tunnel unicast failed")
	}
}

func TestDropFuncSuppressesDelivery(t *testing.T) {
	topo := lineTopo(2)
	net := NewNetwork(topo, Config{Seed: 1})
	r := &recorder{}
	net.SetHandler(1, r)
	net.SetDropFunc(func(n *Network, from, to topology.NodeID, pkt Packet) bool {
		return true
	})
	net.Schedule(0, func() { net.Broadcast(0, "lost") })
	net.Run()
	if len(r.got) != 0 {
		t.Error("dropped packet was delivered")
	}
	tx, rx := net.TotalTraffic()
	if tx != 1 {
		t.Errorf("tx = %d; transmission still happens when receiver drops", tx)
	}
	if rx != 0 {
		t.Errorf("rx = %d; dropped packets must not count as receptions", rx)
	}
	if net.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", net.Dropped())
	}
	if net.Lost() != 0 {
		t.Errorf("Lost = %d; attack drops must not count as channel loss", net.Lost())
	}
	net.Reset(1)
	if net.Dropped() != 0 {
		t.Errorf("Dropped = %d after Reset, want 0", net.Dropped())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]string, Time) {
		topo := lineTopo(6)
		net := NewNetwork(topo, Config{Seed: 42})
		var trace []string
		net.SetAllHandlers(HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
			trace = append(trace, pkt.(string))
			if self != 5 {
				n.Broadcast(self, pkt)
			}
		}))
		net.Schedule(0, func() { net.Broadcast(0, "w") })
		net.RunUntil(20)
		return trace, net.Now()
	}
	t1, n1 := run()
	t2, n2 := run()
	if n1 != n2 || len(t1) != len(t2) {
		t.Fatalf("nondeterministic run: %v/%v vs %v/%v", len(t1), n1, len(t2), n2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("traces differ")
		}
	}
}

func TestSeedChangesJitter(t *testing.T) {
	arrival := func(seed uint64) Time {
		topo := lineTopo(2)
		net := NewNetwork(topo, Config{Seed: seed})
		var at Time
		net.SetHandler(1, HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
			at = n.Now()
		}))
		net.Schedule(0, func() { net.Broadcast(0, "x") })
		net.Run()
		return at
	}
	a, b := arrival(1), arrival(2)
	if a == b {
		t.Error("different seeds should give different jitter")
	}
	if a < 1 || a >= 1.1 {
		t.Errorf("arrival %v outside [HopDelay, HopDelay+Jitter)", a)
	}
}

func TestResetCounters(t *testing.T) {
	topo := lineTopo(2)
	net := NewNetwork(topo, Config{Seed: 1})
	net.Schedule(0, func() { net.Broadcast(0, "x") })
	net.Run()
	net.ResetCounters()
	tx, rx := net.TotalTraffic()
	if tx != 0 || rx != 0 {
		t.Errorf("counters not reset: %d/%d", tx, rx)
	}
}

func TestLossRateDropsReceptions(t *testing.T) {
	topo := lineTopo(2)
	net := NewNetwork(topo, Config{Seed: 1, LossRate: 1})
	r := &recorder{}
	net.SetHandler(1, r)
	for i := 0; i < 20; i++ {
		net.Schedule(0, func() { net.Broadcast(0, "x") })
	}
	net.Run()
	if len(r.got) != 0 {
		t.Errorf("received %d packets at 100%% loss", len(r.got))
	}
	if net.Lost() != 20 {
		t.Errorf("Lost = %d, want 20", net.Lost())
	}
}

func TestLossRatePartial(t *testing.T) {
	topo := lineTopo(2)
	net := NewNetwork(topo, Config{Seed: 1, LossRate: 0.5})
	r := &recorder{}
	net.SetHandler(1, r)
	const n = 400
	for i := 0; i < n; i++ {
		net.Schedule(0, func() { net.Broadcast(0, "x") })
	}
	net.Run()
	got := len(r.got)
	if got < n/4 || got > 3*n/4 {
		t.Errorf("received %d of %d at 50%% loss", got, n)
	}
	if int(net.Lost())+got != n {
		t.Errorf("lost (%d) + received (%d) != sent (%d)", net.Lost(), got, n)
	}
}

func TestDelayFactorSpeedsDelivery(t *testing.T) {
	arrival := func(factor float64) Time {
		topo := lineTopo(2)
		net := NewNetwork(topo, Config{Seed: 9})
		if factor != 1 {
			net.SetDelayFactor(0, factor)
		}
		var at Time
		net.SetHandler(1, HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
			at = n.Now()
		}))
		net.Schedule(0, func() { net.Broadcast(0, "x") })
		net.Run()
		return at
	}
	fast, slow := arrival(0.5), arrival(2)
	if fast >= arrival(1) || slow <= arrival(1) {
		t.Errorf("delay factors not respected: fast=%v slow=%v normal=%v", fast, slow, arrival(1))
	}
}

func TestDelayFactorRejectsNonPositive(t *testing.T) {
	topo := lineTopo(2)
	net := NewNetwork(topo, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("non-positive factor should panic")
		}
	}()
	net.SetDelayFactor(0, 0)
}

// BenchmarkFloodLargeGrid measures raw event throughput: a full flood over
// a 30x30 grid (every node rebroadcasts once), ~900 broadcasts and ~3500
// receptions per iteration.
func BenchmarkFloodLargeGrid(b *testing.B) {
	topo := topology.New("grid30", 1.001)
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			topo.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	topo.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := NewNetwork(topo, Config{Seed: uint64(i + 1)})
		seen := make([]bool, topo.N())
		net.SetAllHandlers(HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
			if !seen[self] {
				seen[self] = true
				n.Broadcast(self, pkt)
			}
		}))
		net.Schedule(0, func() { net.Broadcast(0, "flood") })
		net.Run()
		if net.Processed() == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkBroadcastDelivery isolates the per-delivery cost.
func BenchmarkBroadcastDelivery(b *testing.B) {
	topo := lineTopo(3)
	net := NewNetwork(topo, Config{Seed: 1})
	net.SetAllHandlers(HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Schedule(0, func() { net.Broadcast(1, "x") })
		net.Run()
	}
}

func TestSetLinkDelaySlowsOnlyThatLink(t *testing.T) {
	topo := lineTopo(5)
	topo.AddExtraLink(0, 4)
	// Deterministic timing: no jitter.
	net := NewNetwork(topo, Config{Seed: 1, Jitter: ExplicitZero})
	net.SetLinkDelay(0, 4, 6)

	var tunnelAt, radioAt Time
	net.SetHandler(4, HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
		tunnelAt = n.Now()
	}))
	net.SetHandler(1, HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
		radioAt = n.Now()
	}))
	net.Schedule(0, func() {
		net.Unicast(0, 4, "tunneled")
		net.Unicast(0, 1, "radio")
	})
	net.Run()
	if radioAt != 1 {
		t.Errorf("radio hop arrived at %v, want 1", radioAt)
	}
	if tunnelAt != 7 {
		t.Errorf("tunnel crossing arrived at %v, want hop delay 1 + link delay 6", tunnelAt)
	}

	// A non-positive delay clears the entry; Reset clears all of them.
	net.SetLinkDelay(0, 4, 0)
	net.SetLinkDelay(0, 1, 3)
	net.Reset(2)
	radioAt = 0
	net.SetHandler(1, HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
		radioAt = n.Now()
	}))
	net.Schedule(0, func() { net.Unicast(0, 1, "after reset") })
	net.Run()
	if radioAt != 1 {
		t.Errorf("link delays survived Reset: arrival at %v, want 1", radioAt)
	}
}
