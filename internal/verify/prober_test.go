package verify

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/geom"
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// lineTopo builds the 5-node line 0-1-2-3-4 with unit spacing. The suspect
// pair under test is the middle link 1-2.
func lineTopo() *topology.Topology {
	topo := topology.New("line", 1.001)
	for i := 0; i < 5; i++ {
		topo.AddNode(geom.Pt(float64(i), 0))
	}
	return topo
}

func lineNet(seed uint64) *sim.Network {
	return sim.NewNetwork(lineTopo(), sim.Config{Seed: seed})
}

var lineRoute = routing.Route{0, 1, 2, 3, 4}

// TestProbeExoneratesForwardingPair: honest relays answer every challenge
// with a valid in-time proof, so the pair is cleared.
func TestProbeExoneratesForwardingPair(t *testing.T) {
	net := lineNet(1)
	pair := topology.MkLink(1, 2)
	v := Probe(net, pair, []routing.Route{lineRoute}, Config{}, nil)
	if v.Probes != 1 {
		t.Fatalf("Probes = %d, want 1", v.Probes)
	}
	if len(v.Evidence) != 1 || v.Evidence[0].Kind != AckValid {
		t.Fatalf("evidence = %v, want one AckValid", v.Evidence)
	}
	if v.Likelihood != 0 || v.Condemned {
		t.Fatalf("verdict = %+v, want exonerated", v)
	}
}

// TestProbeCondemnsBlackholePair: a payload-dropping pair destroys the
// challenges (via the attack package's drop policy, proving the probe
// packets carry the PayloadPacket marker), so every probe times out.
func TestProbeCondemnsBlackholePair(t *testing.T) {
	net := lineNet(1)
	pol := attack.NewDropPolicy(map[topology.NodeID]bool{1: true, 2: true}, attack.Blackhole)
	net.SetDropFunc(pol.Func(net.Rand()))

	pair := topology.MkLink(1, 2)
	v := Probe(net, pair, []routing.Route{lineRoute}, Config{}, nil)
	if len(v.Evidence) != 1 || v.Evidence[0].Kind != AckMissing {
		t.Fatalf("evidence = %v, want one AckMissing", v.Evidence)
	}
	// Default retries = 1: the missing ACK is recorded on the second send.
	if v.Evidence[0].Attempt != 2 {
		t.Fatalf("Attempt = %d, want 2 (one retry)", v.Evidence[0].Attempt)
	}
	if v.Likelihood != 1 || !v.Condemned {
		t.Fatalf("verdict = %+v, want condemned", v)
	}
	if pol.Dropped == 0 {
		t.Fatal("drop policy never fired: probe packets are not payload")
	}
}

// TestProbeCondemnsForger: a Byzantine intermediary answers challenges with
// fabricated proofs; the MAC check turns each into ProofInvalid evidence.
func TestProbeCondemnsForger(t *testing.T) {
	net := lineNet(1)
	pair := topology.MkLink(1, 2)
	cfg := Config{Forgers: map[topology.NodeID]bool{1: true}}
	v := Probe(net, pair, []routing.Route{lineRoute}, cfg, nil)
	if len(v.Evidence) != 1 || v.Evidence[0].Kind != ProofInvalid {
		t.Fatalf("evidence = %v, want one ProofInvalid", v.Evidence)
	}
	if !v.Condemned {
		t.Fatalf("verdict = %+v, want condemned", v)
	}
}

// TestProbeRefusesIsolatedPair: probing a pair already on the isolation
// list is refused with administrative PairIsolated evidence.
func TestProbeRefusesIsolatedPair(t *testing.T) {
	net := lineNet(1)
	pair := topology.MkLink(1, 2)
	iso := NewIsolationSet()
	iso.Condemn(Verdict{Pair: pair, Likelihood: 1, Condemned: true})

	v := Probe(net, pair, []routing.Route{lineRoute}, Config{}, iso)
	if len(v.Evidence) != 1 || v.Evidence[0].Kind != PairIsolated {
		t.Fatalf("evidence = %v, want one PairIsolated", v.Evidence)
	}
	if v.Probes != 0 || !v.Condemned {
		t.Fatalf("verdict = %+v, want refused and condemned", v)
	}
}

// TestProbeSkipsRoutesOffPair: only routes traversing the suspect pair are
// probed; a pair no route crosses yields the unproven 0.5 prior.
func TestProbeSkipsRoutesOffPair(t *testing.T) {
	net := lineNet(1)
	off := routing.Route{2, 3, 4} // does not contain link 0-1
	v := Probe(net, topology.MkLink(0, 1), []routing.Route{off}, Config{}, nil)
	if v.Probes != 0 || len(v.Evidence) != 0 {
		t.Fatalf("verdict = %+v, want no probes", v)
	}
	if v.Likelihood != 0.5 || v.Condemned {
		t.Fatalf("verdict = %+v, want 0.5 prior, not condemned", v)
	}
}

// TestProbeMaxProbesBudget: with more routes through the pair than the
// budget, exactly MaxProbes of them are probed. Three routes cross 1-2 (the
// off route does not); a budget of two probes walks exactly two of them.
func TestProbeMaxProbesBudget(t *testing.T) {
	off := routing.Route{2, 3, 4}
	routes := []routing.Route{off, lineRoute, lineRoute, lineRoute}
	v := Probe(lineNet(1), topology.MkLink(1, 2), routes, Config{MaxProbes: 2}, nil)
	if v.Probes != 2 || len(v.Evidence) != 2 {
		t.Fatalf("verdict = %+v, want 2 probes under MaxProbes 2", v)
	}
}

// TestProbeMaxProbesExplicitZero: MaxProbes: ExplicitZero disables probing
// even when candidate routes exist — the configurable-zero contract.
func TestProbeMaxProbesExplicitZero(t *testing.T) {
	net := lineNet(1)
	v := Probe(net, topology.MkLink(1, 2), []routing.Route{lineRoute}, Config{MaxProbes: ExplicitZero}, nil)
	if v.Probes != 0 || len(v.Evidence) != 0 || v.Condemned {
		t.Fatalf("verdict = %+v, want no probes under ExplicitZero", v)
	}
}

// TestProbeZeroTimeout: Timeout: ExplicitZero expires every attempt at send
// time, so even an honest pair's proof arrives late — the probe records the
// missing ACK and then the late (valid) proof.
func TestProbeZeroTimeout(t *testing.T) {
	net := lineNet(1)
	cfg := Config{Timeout: ExplicitZero, Retries: ExplicitZero}
	v := Probe(net, topology.MkLink(1, 2), []routing.Route{lineRoute}, cfg, nil)
	if len(v.Evidence) != 2 || v.Evidence[0].Kind != AckMissing || v.Evidence[1].Kind != AckLate {
		t.Fatalf("evidence = %v, want [AckMissing AckLate]", v.Evidence)
	}
}

// TestProbeDeterministic: identical seeds yield identical verdicts,
// including evidence timestamps.
func TestProbeDeterministic(t *testing.T) {
	run := func() Verdict {
		net := lineNet(7)
		pol := attack.NewDropPolicy(map[topology.NodeID]bool{2: true}, attack.Greyhole)
		net.SetDropFunc(pol.Func(net.Rand()))
		return Probe(net, topology.MkLink(1, 2), []routing.Route{lineRoute, lineRoute}, Config{}, nil)
	}
	a, b := run(), run()
	if len(a.Evidence) != len(b.Evidence) {
		t.Fatalf("evidence counts differ: %d vs %d", len(a.Evidence), len(b.Evidence))
	}
	for i := range a.Evidence {
		x, y := a.Evidence[i], b.Evidence[i]
		if x.Kind != y.Kind || x.At != y.At || x.Attempt != y.Attempt {
			t.Fatalf("evidence[%d] differs: %+v vs %+v", i, x, y)
		}
	}
	if a.Likelihood != b.Likelihood || a.Condemned != b.Condemned {
		t.Fatalf("verdicts differ: %+v vs %+v", a, b)
	}
}

// TestProbeClearsHandlers: the network is handler-free after Probe, as the
// contract promises.
func TestProbeClearsHandlers(t *testing.T) {
	net := lineNet(1)
	Probe(net, topology.MkLink(1, 2), []routing.Route{lineRoute}, Config{}, nil)
	// A fresh unicast must fall into the void (nil handler), not panic or
	// invoke a stale prober; counters tell us it was at least delivered.
	net.Unicast(0, 1, &Challenge{ProbeID: 99, Route: lineRoute, Pos: 1})
	net.Run()
	if got := net.RxCount(1); got == 0 {
		t.Fatal("delivery did not happen")
	}
}
