package samnet

// This file is the library's public facade: the handful of types and
// functions a downstream user needs to build a network, run multi-path
// route discovery, and detect wormholes with SAM, without touching the
// internal packages directly. Everything here delegates to internal/.

import (
	"math/rand/v2"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/sam"
	"samnet/internal/service"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/verify"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Network is a built topology plus its source/destination pools and
	// attacker sites.
	Network = topology.Network
	// NodeID identifies a node.
	NodeID = topology.NodeID
	// Link is an undirected link between two nodes.
	Link = topology.Link
	// Route is an ordered node sequence from source to destination.
	Route = routing.Route
	// Discovery is the outcome of one route discovery.
	Discovery = routing.Discovery
	// Stats holds SAM's link-frequency statistics of one route set.
	Stats = sam.Stats
	// Profile is a trained normal-condition profile.
	Profile = sam.Profile
	// Trainer accumulates normal runs into a Profile.
	Trainer = sam.Trainer
	// Detector scores route sets against a Profile.
	Detector = sam.Detector
	// DetectorConfig tunes the detector.
	DetectorConfig = sam.DetectorConfig
	// Verdict is a detector decision with its soft lambda.
	Verdict = sam.Verdict
	// ProbeVerdict is the outcome of probing a suspect pair (IDS step 2):
	// its likelihood, whether it is condemned, and the evidence.
	ProbeVerdict = verify.Verdict
	// Wormhole is an installed tunnel between two attacker nodes.
	Wormhole = attack.Wormhole
	// Scenario bundles active wormholes and their payload behaviour.
	Scenario = attack.Scenario
	// DetectionService is the long-running HTTP/JSON scoring service built
	// around SAM (see internal/service and cmd/samserve).
	DetectionService = service.Service
	// ServiceConfig tunes a DetectionService.
	ServiceConfig = service.Config
)

// Payload behaviours for wormhole endpoints.
const (
	BehaviorForward   = attack.Forward
	BehaviorBlackhole = attack.Blackhole
	BehaviorGreyhole  = attack.Greyhole
)

// NewCluster builds the paper's 2-cluster topology at tier k with the given
// number of (inactive) attacker pairs.
func NewCluster(k, wormholes int) *Network { return topology.Cluster(k, wormholes) }

// NewUniform builds a cols x rows uniform grid at tier k.
func NewUniform(cols, rows, k, wormholes int) *Network {
	return topology.Uniform(cols, rows, k, wormholes)
}

// NewRandom builds a connected random topology with the library defaults
// (60 nodes in a 15x15 area, radio range 2.3), seeded by seed.
func NewRandom(wormholes int, seed uint64) *Network {
	rng := rand.New(rand.NewPCG(seed, 0xda7a))
	return topology.Random(topology.RandomConfig{Wormholes: wormholes}, rng)
}

// Attack activates the first `count` wormhole pairs of net with the given
// payload behaviour. Call Teardown on the result to restore the network.
func Attack(net *Network, count int, behavior attack.PayloadBehavior) *Scenario {
	return attack.NewScenario(net, count, behavior)
}

// DiscoverMR floods one multi-path (SMR-like) route discovery from src to
// dst and returns the route set the destination collected. seed makes the
// run reproducible. If the network is under attack (Attack was called and
// not torn down), tunneled routes show up accordingly.
func DiscoverMR(net *Network, src, dst NodeID, seed uint64) *Discovery {
	return (&mr.Protocol{}).Discover(armedSim(net, nil, seed), src, dst)
}

// DiscoverDSR runs a DSR-style single-path discovery.
func DiscoverDSR(net *Network, src, dst NodeID, seed uint64) *Discovery {
	return (&dsr.Protocol{}).Discover(armedSim(net, nil, seed), src, dst)
}

// DiscoverMRUnderAttack is DiscoverMR with the scenario's payload policy
// armed, so black/grey hole behaviour affects probe traffic on the same
// simulated network.
func DiscoverMRUnderAttack(net *Network, sc *Scenario, src, dst NodeID, seed uint64) *Discovery {
	return (&mr.Protocol{}).Discover(armedSim(net, sc, seed), src, dst)
}

// DiscoverMRAvoiding runs a multi-path discovery with the excluded nodes
// isolated: no node sends to or accepts from them — the network-level effect
// of step 3's "notify the neighbors of the attackers in order to isolate
// the attackers".
func DiscoverMRAvoiding(net *Network, excluded map[NodeID]bool, src, dst NodeID, seed uint64) *Discovery {
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	s.SetDropFunc(func(n *sim.Network, from, to NodeID, pkt sim.Packet) bool {
		return excluded[from] || excluded[to]
	})
	return (&mr.Protocol{}).Discover(s, src, dst)
}

// armedSim builds a fresh simulation of net seeded by seed, with sc's
// payload policy armed if sc is non-nil.
func armedSim(net *Network, sc *Scenario, seed uint64) *sim.Network {
	s := sim.NewNetwork(net.Topo, sim.Config{Seed: seed})
	if sc != nil {
		sc.Arm(s)
	}
	return s
}

// Analyze computes SAM's statistics (p_max, phi, per-link frequencies and
// the localization suspect) over a route set.
func Analyze(routes []Route) Stats { return sam.Analyze(routes) }

// NewTrainer returns a profile trainer with default PMF binning.
func NewTrainer(label string) *Trainer { return sam.NewTrainer(label, 0) }

// NewDetector builds a detector with default configuration over a trained
// profile.
func NewDetector(p *Profile) *Detector { return sam.NewDetector(p, sam.DetectorConfig{}) }

// NewDetectionService builds a SAM detection service: a sharded profile
// store plus a bounded worker pool, served over HTTP via its Handler. The
// zero Config selects production defaults. Close the service only after its
// HTTP server has fully shut down.
func NewDetectionService(cfg ServiceConfig) *DetectionService { return service.New(cfg) }

// Probe is the IDS's step 2: on a fresh simulation of net (with sc's payload
// policy armed if non-nil) it sends HMAC challenge–response probes along up
// to three of the routes that cross pair and judges the evidence. A
// condemned verdict is the confirmation step 3 isolates on.
func Probe(net *Network, sc *Scenario, pair Link, routes []Route, seed uint64) ProbeVerdict {
	return verify.Probe(armedSim(net, sc, seed), pair, routes, verify.Config{}, nil)
}
