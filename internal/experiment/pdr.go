package experiment

import (
	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/trace"
)

// PDR measures what the wormhole actually costs and what SAM's response
// buys back: the packet delivery ratio of data sent over the routes a
// source would use, in three regimes —
//
//	oblivious:  routes from an attacked discovery, attackers blackholing;
//	detected:   steps 1–2 ran and a condemned pair's routes are avoided
//	            (when clean alternatives exist in the collected set);
//	isolated:   the accused pair is cut out of the network entirely and
//	            routes are rediscovered (step 3's end state).
//
// The paper motivates SAM with exactly this damage model ("the attack nodes
// may perform various attacks, such as the black hole attacks") but never
// quantifies delivery; this closes that loop.
func PDR(cfg Config) *trace.Artifact {
	cfg = cfg.withDefaults()
	const packetsPerRun = 5

	t := &trace.Table{
		Title:   "Extension — packet delivery ratio under a blackhole wormhole (1-tier cluster, MR)",
		Headers: []string{"Regime", "Delivered", "PDR"},
		Notes: []string{
			"Each run sends " + trace.D(packetsPerRun) + " data packets over the (up to 2) routes " +
				"the source would select; attackers drop all payloads.",
			"'detected' uses SAM's selected routes after the pipeline's verdict; in the cluster " +
				"every collected route crosses the tunnel, so recovery requires the isolation step.",
		},
	}

	// Train the detector on normal-condition discoveries.
	trainCfg := cfg
	trainCfg.Runs = 30
	trainCfg.Seed = cfg.Seed + 11
	trainer := sam.NewTrainer("pdr", 0)
	for _, r := range RunCondition(trainCfg, clusterCond(1, 0, mrProtocol, "MR")) {
		trainer.Observe(r.Stats)
	}
	profile, err := trainer.Profile()
	if err != nil {
		panic("experiment: pdr training failed: " + err.Error())
	}

	type pdrOut struct {
		sent, delivered [3]int
	}
	outs := runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) pdrOut {
		var tally pdrOut
		net := topology.Cluster(1, 2)
		sc := attack.NewScenario(net, 1, attack.Blackhole)
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))

		// Attacked discovery: the routes an oblivious source would get.
		discNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "pdr/disc", run)})
		sc.Arm(discNet)
		disc := mrProtocol().Discover(discNet, src, dst)

		send := func(regime int, routes []routing.Route, excluded map[topology.NodeID]bool) {
			routes = routing.SelectDisjoint(routes, 2)
			if len(routes) == 0 {
				tally.sent[regime] += packetsPerRun // nothing usable: all lost
				return
			}
			pNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "pdr/send", run)})
			policy := sc.Arm(pNet)
			if excluded != nil {
				inner := policy.Func(pNet.Rand())
				pNet.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
					return excluded[from] || excluded[to] || inner(n, from, to, pkt)
				})
			}
			var batch []routing.Route
			for i := 0; i < packetsPerRun; i++ {
				batch = append(batch, routes[i%len(routes)])
			}
			for _, res := range routing.ProbeRoutes(pNet, batch) {
				tally.sent[regime]++
				if res.Acked {
					tally.delivered[regime]++
				}
			}
		}

		// Regime 0 — oblivious: use the attacked discovery's routes as-is.
		send(0, disc.Routes, nil)

		// Regime 1 — detected: steps 1–2 ran; a condemned pair's routes are
		// avoided.
		_, verdict := detectAndProbe(cfg, cache, profile, disc.Routes, "pdr", run,
			func() (*topology.Network, *attack.Scenario) { return net, sc })
		detected := disc.Routes
		excluded := map[topology.NodeID]bool{}
		if verdict.Condemned {
			detected = nil
			for _, r := range disc.Routes {
				if !r.ContainsLink(verdict.Pair) {
					detected = append(detected, r)
				}
			}
			excluded[verdict.Pair.A] = true
			excluded[verdict.Pair.B] = true
		}
		send(1, detected, nil)

		// Regime 2 — isolated: cut the condemned pair out and rediscover.
		redisc := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, "pdr/redisc", run)})
		redisc.SetDropFunc(func(n *sim.Network, from, to topology.NodeID, pkt sim.Packet) bool {
			return excluded[from] || excluded[to]
		})
		clean := mrProtocol().Discover(redisc, src, dst)
		send(2, clean.Routes, excluded)

		sc.Teardown()
		return tally
	})
	var sent, delivered [3]int
	for _, o := range outs {
		for i := 0; i < 3; i++ {
			sent[i] += o.sent[i]
			delivered[i] += o.delivered[i]
		}
	}

	names := []string{"oblivious (no detection)", "detected (avoid accused link)", "isolated (step 3) + rediscovery"}
	for i, name := range names {
		ratio := 0.0
		if sent[i] > 0 {
			ratio = float64(delivered[i]) / float64(sent[i])
		}
		t.AddRow(name, trace.D(delivered[i])+"/"+trace.D(sent[i]), trace.Pct(ratio))
	}
	return &trace.Artifact{ID: "pdr", Kind: "extension", Tables: []*trace.Table{t}}
}
