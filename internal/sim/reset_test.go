package sim

import (
	"testing"

	"samnet/internal/topology"
)

// floodTrace runs the same rebroadcast flood TestDeterministicAcrossRuns
// uses and returns its full reception trace, final clock, and traffic.
func floodTrace(net *Network) (trace []topology.NodeID, now Time, tx, rx int64) {
	last := topology.NodeID(net.Topology().N() - 1)
	net.SetAllHandlers(HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
		trace = append(trace, self)
		if self != last {
			n.Broadcast(self, pkt)
		}
	}))
	net.Schedule(0, func() { net.Broadcast(0, "w") })
	now = net.RunUntil(20)
	tx, rx = net.TotalTraffic()
	return trace, now, tx, rx
}

func sameTrace(t *testing.T, label string, a, b []topology.NodeID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: traces diverge at %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func TestResetReproducesFreshNetwork(t *testing.T) {
	topo := lineTopo(6)
	wantTrace, wantNow, wantTx, wantRx := floodTrace(NewNetwork(topo, Config{Seed: 42}))

	// Dirty a network with a different seed, handlers, counters, a drop func
	// and a delay factor, then Reset to seed 42: every observable must match
	// a fresh NewNetwork.
	net := NewNetwork(topo, Config{Seed: 7})
	net.SetDropFunc(func(n *Network, from, to topology.NodeID, pkt Packet) bool { return false })
	net.SetDelayFactor(2, 0.5)
	net.NextID()
	floodTrace(net)

	net.Reset(42)
	if net.Now() != 0 || net.Pending() != 0 || net.Processed() != 0 {
		t.Fatalf("Reset left engine state: now=%v pending=%d processed=%d",
			net.Now(), net.Pending(), net.Processed())
	}
	if tx, rx := net.TotalTraffic(); tx != 0 || rx != 0 || net.Lost() != 0 {
		t.Fatalf("Reset left counters: %d/%d lost=%d", tx, rx, net.Lost())
	}
	if id := net.NextID(); id != 1 {
		t.Errorf("NextID after Reset = %d, want 1", id)
	}
	net.Reset(42) // NextID above consumed an id; rewind again
	gotTrace, gotNow, gotTx, gotRx := floodTrace(net)
	sameTrace(t, "reset", gotTrace, wantTrace)
	if gotNow != wantNow || gotTx != wantTx || gotRx != wantRx {
		t.Errorf("reset run differs: now %v/%v tx %d/%d rx %d/%d",
			gotNow, wantNow, gotTx, wantTx, gotRx, wantRx)
	}
}

func TestRetargetAcrossTopologies(t *testing.T) {
	small, big := lineTopo(3), lineTopo(8)
	wantTrace, wantNow, _, _ := floodTrace(NewNetwork(big, Config{Seed: 9}))

	net := NewNetwork(small, Config{Seed: 1})
	floodTrace(net)
	net.Retarget(big, Config{Seed: 9})
	gotTrace, gotNow, _, _ := floodTrace(net)
	sameTrace(t, "retarget-grow", gotTrace, wantTrace)
	if gotNow != wantNow {
		t.Errorf("retarget clock differs: %v vs %v", gotNow, wantNow)
	}

	// Shrinking back must not leak the larger node count.
	net.Retarget(small, Config{Seed: 3})
	want2, _, _, _ := floodTrace(NewNetwork(small, Config{Seed: 3}))
	got2, _, _, _ := floodTrace(net)
	sameTrace(t, "retarget-shrink", got2, want2)
}

func TestConfigExplicitZeroJitter(t *testing.T) {
	arrival := func(seed uint64, cfg Config) Time {
		cfg.Seed = seed
		net := NewNetwork(lineTopo(2), cfg)
		var at Time
		net.SetHandler(1, HandlerFunc(func(n *Network, self, from topology.NodeID, pkt Packet) {
			at = n.Now()
		}))
		net.Schedule(0, func() { net.Broadcast(0, "x") })
		net.Run()
		return at
	}
	// ExplicitZero jitter: delivery lands exactly on HopDelay, every seed.
	for _, seed := range []uint64{1, 2, 99} {
		if at := arrival(seed, Config{Jitter: ExplicitZero}); at != 1 {
			t.Errorf("seed %d with explicit-zero jitter arrived at %v, want exactly 1", seed, at)
		}
	}
	// ExplicitZero hop delay: only jitter remains.
	if at := arrival(1, Config{HopDelay: ExplicitZero}); at < 0 || at >= 0.1 {
		t.Errorf("explicit-zero hop delay arrived at %v, want [0, 0.1)", at)
	}
	// Both explicit zero: instantaneous delivery.
	if at := arrival(1, Config{HopDelay: ExplicitZero, Jitter: ExplicitZero}); at != 0 {
		t.Errorf("fully zero-delay network arrived at %v, want 0", at)
	}
	// Plain zero still means the defaults.
	if at := arrival(1, Config{}); at < 1 || at >= 1.1 {
		t.Errorf("default config arrived at %v, want [1, 1.1)", at)
	}
}

// TestBroadcastDeliverZeroAlloc pins the hot-path invariant: once warm, a
// broadcast plus the delivery of every copy allocates nothing — no closure,
// no boxed heap event — on the plain path, with channel loss (receivers
// copied into the entry's own buffer) and with a delayed link (a receiver
// split off into its own entry).
func TestBroadcastDeliverZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		delay bool
	}{
		{name: "plain", cfg: Config{Seed: 1}},
		{name: "loss", cfg: Config{Seed: 1, LossRate: 0.3}},
		{name: "link-delay", cfg: Config{Seed: 1}, delay: true},
	} {
		net := NewNetwork(lineTopo(3), tc.cfg)
		var pkt Packet = "x"
		net.SetAllHandlers(HandlerFunc(nopHandler))
		if tc.delay {
			net.SetLinkDelay(1, 2, 3)
		}
		// Warm the event queue.
		for i := 0; i < 4; i++ {
			net.Broadcast(1, pkt)
			net.Unicast(1, 2, pkt)
		}
		net.Run()
		if got := testing.AllocsPerRun(200, func() {
			net.Broadcast(1, pkt)
			net.Unicast(1, 2, pkt)
			net.Run()
		}); got != 0 {
			t.Errorf("%s: broadcast+deliver allocates %.1f times per op, want 0", tc.name, got)
		}
		if tc.cfg.LossRate > 0 && net.Lost() == 0 {
			t.Errorf("%s: no reception was lost", tc.name)
		}
		// Reset is part of the steady-state reuse loop and must stay free
		// too. It clears link delays, so this half runs the plain or loss
		// path.
		if got := testing.AllocsPerRun(200, func() {
			net.Reset(5)
			net.SetAllHandlers(HandlerFunc(nopHandler))
			net.Broadcast(1, pkt)
			net.Run()
		}); got != 0 {
			t.Errorf("%s: reset+broadcast+deliver allocates %.1f times per op, want 0", tc.name, got)
		}
	}
}

func nopHandler(n *Network, self, from topology.NodeID, pkt Packet) {}
