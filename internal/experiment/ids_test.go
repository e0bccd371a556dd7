package experiment

import (
	"testing"

	"samnet/internal/attack"
	"samnet/internal/sam"
	"samnet/internal/topology"
)

// flaggedRuns trains a cluster MR profile and returns the attacked runs
// (Forward tunnel, seed 2005) whose SAM verdict is not Normal, with the
// config, profile and condition they came from.
func flaggedRuns(t *testing.T) (Config, *sam.Profile, Condition, []RunResult) {
	t.Helper()
	cfg := Config{Runs: 10, Seed: 2005, Workers: 1}
	trainer := sam.NewTrainer("ids", 0)
	trainCfg := cfg
	trainCfg.Runs, trainCfg.Seed = 30, cfg.Seed+1
	for _, r := range RunCondition(trainCfg, clusterCond(1, 0, mrProtocol, "MR")) {
		trainer.Observe(r.Stats)
	}
	profile, err := trainer.Profile()
	if err != nil {
		t.Fatal(err)
	}
	forward := clusterCond(1, 1, mrProtocol, "MR")
	var flagged []RunResult
	for _, r := range RunCondition(cfg, forward) {
		if sam.NewDetector(profile, sam.DetectorConfig{}).Evaluate(sam.Analyze(r.Routes)).Decision != sam.Normal {
			flagged = append(flagged, r)
		}
	}
	if len(flagged) == 0 {
		t.Fatal("SAM flagged no attacked run; the confirm rule went untested")
	}
	return cfg, profile, forward, flagged
}

// TestDetectAndProbeExoneratesForwardTunnel pins half of the one rule for
// "confirmed": SAM's suspicion alone confirms nothing. A Forward tunnel
// relays the challenges, so every run SAM flags is probed and exonerated.
func TestDetectAndProbeExoneratesForwardTunnel(t *testing.T) {
	cfg, profile, forward, flagged := flaggedRuns(t)
	for _, r := range flagged {
		v, fwd := detectAndProbe(cfg, nil, profile, r.Routes, forward.Label, r.Run,
			func() (*topology.Network, *attack.Scenario) { return forward.network(cfg, r.Run) })
		if v.Decision == sam.Normal {
			t.Fatalf("run %d: detectAndProbe scored Normal on a run SAM flags", r.Run)
		}
		if fwd.Probes == 0 || fwd.Condemned || fwd.Pair != v.SuspectLink {
			t.Errorf("run %d: forward tunnel verdict %+v, want probed and exonerated", r.Run, fwd)
		}
	}
}

// TestDetectAndProbeCondemnsBlackholeTunnel pins the other half: a
// Blackhole tunnel on the same runs (same routes, same suspect) destroys
// the challenges, so the probe verdict is Condemned.
func TestDetectAndProbeCondemnsBlackholeTunnel(t *testing.T) {
	cfg, profile, forward, flagged := flaggedRuns(t)
	blackhole := forward
	blackhole.Behavior = attack.Blackhole
	for _, r := range flagged {
		v, bh := detectAndProbe(cfg, nil, profile, r.Routes, blackhole.Label, r.Run,
			func() (*topology.Network, *attack.Scenario) { return blackhole.network(cfg, r.Run) })
		if !bh.Condemned || bh.Pair != v.SuspectLink {
			t.Errorf("run %d: blackhole tunnel verdict %+v, want %v condemned", r.Run, bh, v.SuspectLink)
		}
	}
}
