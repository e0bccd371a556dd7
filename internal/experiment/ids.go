package experiment

import (
	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/verify"
)

// detectAndProbe runs steps 1 and 2 of the paper's IDS (Fig. 3) on one run's
// discovered route set. A detector over profile scores the routes; a verdict
// other than Normal asks build for the run's network and attack (nil for
// none), arms the attack on a fresh simulation of that network seeded from
// (label+"/probe", run) and sends verify.Probe down the suspect pair. build
// is called only when a probe runs, so a caller without the network at hand
// pays for rebuilding it only then. A Normal verdict returns the zero
// verify.Verdict. The attack is confirmed exactly when the verify verdict is
// Condemned; step 3 (isolation) is the caller's.
func detectAndProbe(cfg Config, cache *simCache, profile *sam.Profile, routes []routing.Route,
	label string, run int, build func() (*topology.Network, *attack.Scenario)) (sam.Verdict, verify.Verdict) {
	v := sam.NewDetector(profile, sam.DetectorConfig{}).Evaluate(sam.Analyze(routes))
	if v.Decision == sam.Normal {
		return v, verify.Verdict{}
	}
	net, atk := build()
	probeNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, label+"/probe", run)})
	if atk != nil {
		atk.Arm(probeNet)
	}
	return v, verify.Probe(probeNet, v.SuspectLink, routes, cfg.Verify, nil)
}
