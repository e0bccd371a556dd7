package sam

import (
	"samnet/internal/routing"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// HybridConfig tunes the hybrid detector. Zero values select defaults; the
// float fields follow the package's ExplicitZero convention.
type HybridConfig struct {
	// Detector configures the fused SAM module (z ramps, lambda cuts); its
	// ZHigh also serves as the per-link z-score alarm level.
	Detector DetectorConfig
	// TVThreshold and TailProb configure the PMF component (see
	// NewPMFDetector; defaults 0.5 and 0.02, ExplicitZero for true zeros).
	TVThreshold, TailProb float64
	// DetourHops is the corroborated-detour length at which a claimed link
	// counts as a wormhole: honest radio links on the paper's topologies
	// detour around themselves in at most 3 hops, so the default is 4.
	// Non-positive selects the default.
	DetourHops int
	// SlowHopRatio flags a route whose per-hop latency exceeds this multiple
	// of NominalHopDelay — tunnel store-and-forward cost surfacing in the
	// discovery timing (default 1.2; honest jitter tops out well under it,
	// while even one slow tunnel crossing pushes a route past it). FastHopRatio
	// flags latencies below
	// that multiple — replies that arrived faster than radio allows, i.e.
	// forged mid-flood (default 0.6). ExplicitZero for true zeros.
	SlowHopRatio, FastHopRatio float64
	// NominalHopDelay is the expected honest per-hop latency the delay
	// check normalizes by (default 1.05: unit hop delay plus mean jitter).
	// ExplicitZero for a zero-delay network.
	NominalHopDelay sim.Time
}

func (c *HybridConfig) defaults() {
	c.Detector.defaults()
	c.TVThreshold = resolve(c.TVThreshold, 0.5)
	c.TailProb = resolve(c.TailProb, 0.02)
	if c.DetourHops <= 0 {
		c.DetourHops = 4
	}
	c.SlowHopRatio = resolve(c.SlowHopRatio, 1.2)
	c.FastHopRatio = resolve(c.FastHopRatio, 0.6)
	c.NominalHopDelay = sim.Time(resolve(float64(c.NominalHopDelay), 1.05))
}

// HybridVerdict is the hybrid detector's evaluation: the fused decision plus
// which evidence channels fired.
type HybridVerdict struct {
	// Attacked is the fused decision: any channel's alarm condemns the set.
	Attacked bool
	// BySAM: the frequency detector's own hard verdict (Decision ==
	// Attacked). ByPMF: the PMF total-variation/tail test. ByZ: some link's
	// frequency sits ZHigh trained deviations above the trained p_max mean
	// (a per-link generalization of SAM's primary z-score — it also catches
	// secondary tunnels that are not the maximum). ByNeighbor: neighbor-
	// table comparison found an uncorroborated (fabricated) link or a
	// corroborated link whose honest detour is DetourHops or longer (a
	// tunnel). ByDelay: some route's per-hop timing fell outside the
	// [FastHopRatio, SlowHopRatio] band around the nominal hop delay.
	BySAM, ByPMF, ByZ, ByNeighbor, ByDelay bool
	// SAM and PMF echo the component verdicts.
	SAM Verdict
	PMF PMFVerdict
	// SuspectLinks are the links condemned by neighbor-table evidence, in
	// decreasing frequency order.
	SuspectLinks []topology.Link
	// SlowRoutes and FastRoutes count the routes outside the timing band.
	SlowRoutes, FastRoutes int
}

// HybridDetector fuses SAM's frequency statistics with three independent
// evidence channels — a per-link z-score, a neighbor-table comparison
// (mutual corroboration plus detour-length audit), and a delay-consistency
// check over route-discovery timings. Complex adversaries can flatten the
// frequency signal (relay chains split it, adaptive throttling starves it,
// forgery diversifies it) but each evasion leaks through another channel:
// chains and adaptive tunnels still claim links with implausibly long
// honest detours and cost tunnel latency; forged links are never
// corroborated and their replies arrive faster than radio allows.
type HybridDetector struct {
	cfg       HybridConfig
	det       *Detector
	pmf       *PMFDetector
	neighbors *NeighborTables
}

// NewHybridDetector builds the hybrid over a trained profile and the claimed
// neighbor tables. neighbors may be nil, disabling the neighbor check.
func NewHybridDetector(profile *Profile, neighbors *NeighborTables, cfg HybridConfig) *HybridDetector {
	if profile == nil {
		panic("sam: nil profile")
	}
	cfg.defaults()
	tv, tail := cfg.TVThreshold, cfg.TailProb
	// NewPMFDetector resolves its own defaults; forward true zeros as
	// ExplicitZero so the resolved config round-trips.
	if tv == 0 {
		tv = ExplicitZero
	}
	if tail == 0 {
		tail = ExplicitZero
	}
	return &HybridDetector{
		cfg:       cfg,
		det:       NewDetector(profile, cfg.Detector),
		pmf:       NewPMFDetector(profile, tv, tail),
		neighbors: neighbors,
	}
}

// Config returns the effective configuration (defaults filled in).
func (h *HybridDetector) Config() HybridConfig { return h.cfg }

// Detector returns the embedded frequency detector (for adaptive updates).
func (h *HybridDetector) Detector() *Detector { return h.det }

// Evaluate scores one route set. s must be Analyze(routes); times, when
// non-nil, holds each route's discovery latency parallel to routes —
// destination arrival times for collected routes, or reply time minus
// Discovery.FloodEnd for reply sets (forged replies then show negative
// elapsed time and fall out of the fast band). A nil times skips the delay
// check.
func (h *HybridDetector) Evaluate(s Stats, routes []routing.Route, times []sim.Time) HybridVerdict {
	v := HybridVerdict{
		SAM: h.det.Evaluate(s),
		PMF: h.pmf.Evaluate(s),
	}
	v.BySAM = v.SAM.Decision == Attacked
	v.ByPMF = v.PMF.Attacked
	if s.N == 0 {
		return v
	}

	// Per-link z-score: every link's frequency against the trained p_max
	// profile, not just the maximum — the frequency spike of a secondary
	// tunnel is evidence even when another link tops it.
	pmaxMean, _ := h.det.AdaptiveMeans()
	for _, lc := range s.ByLink {
		if h.det.zScore(lc.P, pmaxMean, h.det.profile.PMax.Std) >= h.cfg.Detector.ZHigh {
			v.ByZ = true
		}
	}

	// Neighbor-table comparison over every link the route set claims.
	if h.neighbors != nil {
		for _, lc := range s.ByLink {
			if h.neighbors.suspect(lc.Link, h.cfg.DetourHops) {
				v.ByNeighbor = true
				v.SuspectLinks = append(v.SuspectLinks, lc.Link)
			}
		}
	}

	// Delay consistency: honest per-hop latency is pinned to the MAC's hop
	// delay plus bounded jitter; tunnel crossings add latency no radio hop
	// can, and forged replies arrive before any honest reply can.
	if times != nil && h.cfg.NominalHopDelay > 0 {
		slow := float64(h.cfg.NominalHopDelay) * h.cfg.SlowHopRatio
		fast := float64(h.cfg.NominalHopDelay) * h.cfg.FastHopRatio
		for i, r := range routes {
			if i >= len(times) || r.Hops() == 0 {
				continue
			}
			perHop := float64(times[i]) / float64(r.Hops())
			switch {
			case perHop >= slow:
				v.SlowRoutes++
			case perHop <= fast:
				v.FastRoutes++
			}
		}
		v.ByDelay = v.SlowRoutes+v.FastRoutes > 0
	}

	v.Attacked = v.BySAM || v.ByPMF || v.ByZ || v.ByNeighbor || v.ByDelay
	return v
}
