package experiment

import (
	"slices"
	"strconv"

	"samnet/internal/attack"
	"samnet/internal/leash"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sector"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/trace"
)

// Detection is the end-to-end SAM experiment the paper describes but does
// not tabulate: train a profile on normal-condition discoveries, then run
// steps 1–2 (detectAndProbe) on fresh normal and attacked runs, reporting
// detection rate, false positives and attacker localization accuracy. A
// run is confirmed when its probe verdict is condemned.
func Detection(cfg Config) *trace.Artifact {
	cfg = cfg.withDefaults()
	const trainRuns = 30

	setups := []struct {
		name  string
		build func(Config, int) *topology.Network
	}{
		{"cluster-1tier", buildCluster(1)},
		{"uniform10x6", buildUniform(10, 6, 1)},
		{"random", buildRandom()},
	}

	t := &trace.Table{
		Title: "Extension — End-to-end SAM detection (trained profile, three-step pipeline)",
		Headers: []string{
			"Topology", "Detection rate", "Localization", "False alarms", "Mean lambda (attack)", "Mean lambda (normal)",
		},
		Notes: []string{
			"Detection rate: attacked runs ending in a confirmed report. Localization: " +
				"confirmed reports whose accused link is the actual tunnel. False alarms: " +
				"normal runs ending in a confirmed report.",
			"Attackers blackhole data packets, so step 2 probes lose their ACKs.",
		},
	}

	for _, s := range setups {
		normalCond := Condition{Label: s.name + "/MR/normal", Build: s.build, Protocol: mrProtocol}
		attackCond := Condition{
			Label: s.name + "/MR/attack", Build: s.build, Wormholes: 1,
			Protocol: mrProtocol, Behavior: attack.Blackhole,
		}

		// Train on extra normal runs (offset run indices keep training and
		// evaluation workloads disjoint).
		trainer := sam.NewTrainer(s.name+"/MR", 0)
		trainCfg := cfg
		trainCfg.Runs = trainRuns
		trainCfg.Seed = cfg.Seed + 1 // disjoint workload stream
		for _, r := range RunCondition(trainCfg, normalCond) {
			trainer.Observe(r.Stats)
		}
		profile, err := trainer.Profile()
		if err != nil {
			panic("experiment: training produced no profile: " + err.Error())
		}

		// Each run gets its own detector and probe network over the shared
		// read-only profile, so runs evaluate in parallel; the counters fold
		// serially in run order to keep the float sums byte-stable.
		type evalOut struct {
			confirmed, localized bool
			lambda               float64
		}
		evalRuns := func(cond Condition) (confirmed, localized int, lambdaSum float64) {
			results := RunCondition(cfg, cond)
			outs := runner.MapWorkerProgress(cfg.Workers, len(results), cfg.Progress, newSimCache, func(i int, cache *simCache) evalOut {
				r := results[i]
				v, pv := detectAndProbe(cfg, cache, profile, r.Routes, cond.Label, r.Run,
					func() (*topology.Network, *attack.Scenario) { return cond.network(cfg, r.Run) })
				return evalOut{
					confirmed: pv.Condemned,
					localized: pv.Condemned && slices.Contains(r.TunnelLinks, pv.Pair),
					lambda:    v.Lambda,
				}
			})
			for _, eo := range outs {
				lambdaSum += eo.lambda
				if eo.confirmed {
					confirmed++
					if eo.localized {
						localized++
					}
				}
			}
			return confirmed, localized, lambdaSum
		}

		tp, loc, lamA := evalRuns(attackCond)
		fp, _, lamN := evalRuns(normalCond)
		n := float64(cfg.Runs)
		locRate := 0.0
		if tp > 0 {
			locRate = float64(loc) / float64(tp)
		}
		t.AddRow(s.name,
			trace.Pct(float64(tp)/n),
			trace.Pct(locRate),
			trace.Pct(float64(fp)/n),
			trace.F(lamA/n),
			trace.F(lamN/n),
		)
	}
	return &trace.Artifact{ID: "detection", Kind: "extension", Tables: []*trace.Table{t}}
}

// LeashCompare pits SAM against the two prior-art defenses the paper's
// related work describes — the geographic packet leash and SECTOR's MAD
// distance bounding — on identical attacked runs: what each detects, and
// what hardware each requires.
func LeashCompare(cfg Config) *trace.Artifact {
	cfg = cfg.withDefaults()
	cond := clusterCond(1, 1, mrProtocol, "MR")

	t := &trace.Table{
		Title: "Extension — SAM vs packet leash vs SECTOR (1-tier cluster, MR, one wormhole)",
		Headers: []string{
			"Run", "Leash flags tunnel", "SECTOR flags tunnel", "SAM pmax", "SAM suspect = tunnel",
		},
		Notes: []string{
			"Packet leashes check per reception and need GPS + loose clock sync at every node; " +
				"SECTOR distance-bounds each neighbor and needs dedicated challenge-response " +
				"hardware; SAM needs only the route set multi-path routing already collects.",
		},
	}
	type leashOut struct {
		leashHit, sectorHit, samHit bool
		pmax                        float64
	}
	rows := runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(run int, cache *simCache) leashOut {
		net := cond.Build(cfg, run)
		sc := attack.NewScenario(net, cond.Wormholes, cond.Behavior)
		defer sc.Teardown()
		src, dst := net.PickPair(pairRNG(cfg.Seed, run))
		simNet := cache.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, cond.Label, run)})
		checker := leash.New(net.Topo, leash.Config{}, simNet.Rand())
		tally := checker.Monitor(simNet, nil)
		disc := cond.Protocol().Discover(simNet, src, dst)
		verdict := leash.Summarize(tally)
		st := sam.Analyze(disc.Routes)
		tunnel := sc.TunnelLinks()[0]

		prover := sector.New(net.Topo, sector.Config{}, simNet.Rand())
		_, sectorHit := prover.SweepNeighbors()[tunnel]

		return leashOut{
			leashHit:  verdict.Detected && verdict.WorstLink == tunnel,
			sectorHit: sectorHit,
			samHit:    st.Suspect == tunnel,
			pmax:      st.PMax,
		}
	})
	for run, r := range rows {
		t.AddRow(
			strconv.Itoa(run+1),
			boolMark(r.leashHit),
			boolMark(r.sectorHit),
			trace.F(r.pmax),
			boolMark(r.samHit),
		)
	}
	return &trace.Artifact{ID: "leash", Kind: "extension", Tables: []*trace.Table{t}}
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
