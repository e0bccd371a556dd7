package sam

import (
	"samnet/internal/obs"
)

// WithDefaults returns the effective configuration: zero-valued fields
// replaced by their defaults and ExplicitZero fields resolved to true zeros,
// exactly as NewDetector would resolve them. Use it when the thresholds must
// be reported (decision records, explain responses) without holding a
// detector.
func (c DetectorConfig) WithDefaults() DetectorConfig {
	c.defaults()
	return c
}

// NewDecisionRecord flattens one verdict — and the statistics it judged —
// into the telemetry schema: the per-link frequency table, both feature
// statistics against the thresholds of cfg, the localized link, and the
// soft decision. profile names the trained profile the route set was scored
// against; cfg should be the detector's effective configuration
// (Detector.Config, or DetectorConfig.WithDefaults).
//
// The record is self-contained plain data: it allocates the Links table, so
// hot paths must guard construction behind DecisionRing.Enabled.
func NewDecisionRecord(profile string, v Verdict, cfg DetectorConfig) obs.Decision {
	d := obs.Decision{
		Profile: profile,
		Routes:  v.Stats.Routes,
		N:       v.Stats.N,
		PMax:    v.Stats.PMax,
		Phi:     v.Stats.Phi,
		TV:      v.TV,
		ZPMax:   v.ZPMax,
		ZPhi:    v.ZPhi,

		ZLow:          cfg.ZLow,
		ZHigh:         cfg.ZHigh,
		TVLow:         cfg.TVLow,
		TVHigh:        cfg.TVHigh,
		SuspectLambda: cfg.SuspectLambda,
		AttackLambda:  cfg.AttackLambda,

		Suspect:  obs.DecisionLink{A: int(v.Suspects[0]), B: int(v.Suspects[1])},
		Lambda:   v.Lambda,
		Decision: v.Decision.String(),
	}
	if n := len(v.Stats.ByLink); n > 0 {
		d.Links = make([]obs.DecisionLink, n)
		for i, lc := range v.Stats.ByLink {
			d.Links[i] = obs.DecisionLink{A: int(lc.Link.A), B: int(lc.Link.B), Count: lc.Count, P: lc.P}
		}
	}
	return d
}
