package sam

import (
	"fmt"
	"math"

	"samnet/internal/topology"
)

// DetectorConfig tunes how the local detection module turns feature
// deviations into the soft decision lambda. The defaults reproduce the
// paper's qualitative behaviour; the ablation benchmark sweeps them.
type DetectorConfig struct {
	// ZLow and ZHigh map a feature z-score (deviation above the trained
	// mean, in trained standard deviations) to risk: risk is 0 at or below
	// ZLow and 1 at or above ZHigh, linear between. Defaults 1.5 and 4.
	ZLow, ZHigh float64
	// MinStd floors the trained standard deviation so a degenerate
	// (near-constant) training set cannot make the detector hair-triggered.
	// Default 0.02.
	MinStd float64
	// TVLow and TVHigh likewise map the total-variation distance between
	// the observed frequency PMF and the trained PMF to risk.
	// Defaults 0.3 and 0.7.
	TVLow, TVHigh float64
	// SuspectLambda and AttackLambda partition lambda into verdicts:
	// lambda <= AttackLambda is Attacked, lambda <= SuspectLambda is
	// Suspicious, otherwise Normal. Recall the paper's convention:
	// lambda = 0 means attacked with certainty, 1 means no attack.
	// Defaults 0.7 and 0.25.
	SuspectLambda, AttackLambda float64
	// Beta is the forgetting factor of the adaptive profile update
	// (equations 8 and 9), 0 < Beta < 1. Default 0.1. Beta has no
	// meaningful zero, so ExplicitZero does not apply to it.
	Beta float64
}

// ExplicitZero configures a DetectorConfig field to an effective value of
// zero. A literal 0 is the "use the default" sentinel, so fields that are
// meaningfully zero — MinStd: 0 disables the std floor, AttackLambda: 0
// reserves the Attacked verdict for lambda exactly 0, ZLow/TVLow: 0 start
// the risk ramps immediately — take this (or any negative value) instead.
const ExplicitZero = -1.0

// resolve maps a config field to its effective value: zero selects the
// default, negative (ExplicitZero) selects a true zero.
func resolve(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

func (c *DetectorConfig) defaults() {
	c.ZLow = resolve(c.ZLow, 1.5)
	c.ZHigh = resolve(c.ZHigh, 4)
	c.MinStd = resolve(c.MinStd, 0.02)
	c.TVLow = resolve(c.TVLow, 0.3)
	c.TVHigh = resolve(c.TVHigh, 0.7)
	c.SuspectLambda = resolve(c.SuspectLambda, 0.7)
	c.AttackLambda = resolve(c.AttackLambda, 0.25)
	if c.Beta == 0 {
		c.Beta = 0.1
	}
}

// Decision classifies one route set.
type Decision int

const (
	// Normal: statistics are consistent with the trained profile.
	Normal Decision = iota
	// Suspicious: anomalous enough to probe (step 2 of the procedure).
	Suspicious
	// Attacked: anomalous enough to raise the alert outright.
	Attacked
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Normal:
		return "normal"
	case Suspicious:
		return "suspicious"
	case Attacked:
		return "attacked"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Verdict is the output of one detector evaluation.
type Verdict struct {
	Decision Decision
	// Lambda is the soft decision: 0 = attacked with absolute certainty,
	// 1 = no attack detected (the paper's convention).
	Lambda float64
	// ZPMax and ZPhi are the feature deviations in trained standard
	// deviations; TV is the PMF total-variation distance.
	ZPMax, ZPhi, TV float64
	// SuspectLink is the accused link (Stats.Suspect) — under attack, the
	// tunnel.
	SuspectLink topology.Link
	// Suspects are the endpoints of SuspectLink: the accused node pair.
	Suspects [2]topology.NodeID
	// Stats echoes the analyzed statistics.
	Stats Stats
}

// Detector is the SAM local-detection module: it scores live route-set
// statistics against a trained profile and keeps the profile's feature
// means adaptive via the paper's low-pass update.
type Detector struct {
	cfg DetectorConfig

	profile *Profile
	// pmaxMean and phiMean are the adaptive copies of the trained feature
	// means, updated by equations (8) and (9).
	pmaxMean, phiMean float64
}

// NewDetector builds a detector over a trained profile. cfg zero-values are
// filled with defaults.
func NewDetector(profile *Profile, cfg DetectorConfig) *Detector {
	if profile == nil {
		panic("sam: nil profile")
	}
	cfg.defaults()
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		panic("sam: Beta must be in (0,1)")
	}
	return &Detector{
		cfg:      cfg,
		profile:  profile,
		pmaxMean: profile.PMax.Mean,
		phiMean:  profile.Phi.Mean,
	}
}

// Config returns the effective configuration (defaults filled in).
func (d *Detector) Config() DetectorConfig { return d.cfg }

// Profile returns the underlying trained profile.
func (d *Detector) Profile() *Profile { return d.profile }

// AdaptiveMeans returns the current low-pass-updated feature means.
func (d *Detector) AdaptiveMeans() (pmax, phi float64) { return d.pmaxMean, d.phiMean }

// SetAdaptiveMeans overwrites the adaptive feature means with values captured
// earlier by AdaptiveMeans, restoring the low-pass filter state (equations 8
// and 9) across a snapshot/restore cycle. Both features are relative
// frequencies, so values must be finite and in [0,1]; anything else panics —
// persisted state is validated by the caller before it reaches the detector.
func (d *Detector) SetAdaptiveMeans(pmax, phi float64) {
	if math.IsNaN(pmax) || pmax < 0 || pmax > 1 || math.IsNaN(phi) || phi < 0 || phi > 1 {
		panic("sam: adaptive means out of [0,1]")
	}
	d.pmaxMean = pmax
	d.phiMean = phi
}

// Evaluate scores one route set's statistics and returns the verdict.
// It does not update the adaptive profile; call Update with the verdict's
// lambda once the decision has been acted on.
func (d *Detector) Evaluate(s Stats) Verdict {
	v := Verdict{Stats: s, Lambda: 1}
	if s.N == 0 {
		// No routes at all: nothing to judge. (A total route failure is a
		// different alarm — the routing layer's, not SAM's.)
		v.Decision = Normal
		return v
	}
	v.SuspectLink = s.Suspect
	v.Suspects = [2]topology.NodeID{s.Suspect.A, s.Suspect.B}

	v.ZPMax = d.zScore(s.PMax, d.pmaxMean, d.profile.PMax.Std)
	v.ZPhi = d.zScore(s.Phi, d.phiMean, d.profile.Phi.Std)
	v.TV = s.tvDistance(d.profile.PMF)

	riskP := ramp(v.ZPMax, d.cfg.ZLow, d.cfg.ZHigh)
	riskPhi := ramp(v.ZPhi, d.cfg.ZLow, d.cfg.ZHigh)
	riskTV := ramp(v.TV, d.cfg.TVLow, d.cfg.TVHigh)

	// p_max is the primary feature (it separates attacks in every topology
	// the paper tests, Fig. 10/13); phi and the PMF corroborate. Combine as
	// the maximum of the primary risk and the mean of the corroborating
	// pair, so a tied-maximum attack (phi = 0) is still caught by p_max.
	risk := math.Max(riskP, (riskPhi+riskTV)/2)
	v.Lambda = 1 - risk

	switch {
	case v.Lambda <= d.cfg.AttackLambda:
		v.Decision = Attacked
	case v.Lambda <= d.cfg.SuspectLambda:
		v.Decision = Suspicious
	default:
		v.Decision = Normal
	}
	return v
}

// Update applies the paper's adaptive profile update (equations 8 and 9):
//
//	mean_new = lambda*beta*observation + (1 - lambda*beta)*mean_old
//
// so that confidently-normal observations (lambda near 1) refresh the
// profile at rate beta, while attacked observations (lambda near 0) leave
// it untouched.
func (d *Detector) Update(s Stats, lambda float64) {
	if s.N == 0 {
		return
	}
	if lambda < 0 || lambda > 1 {
		panic("sam: lambda out of [0,1]")
	}
	w := lambda * d.cfg.Beta
	d.pmaxMean = w*s.PMax + (1-w)*d.pmaxMean
	d.phiMean = w*s.Phi + (1-w)*d.phiMean
}

func (d *Detector) zScore(obs, mean, std float64) float64 {
	if std < d.cfg.MinStd {
		std = d.cfg.MinStd
	}
	if std == 0 {
		// MinStd: ExplicitZero with a degenerate training set. Any
		// deviation from the mean is infinitely surprising; none is no
		// surprise at all. Keeps NaN out of the lambda computation.
		switch {
		case obs > mean:
			return math.Inf(1)
		case obs < mean:
			return math.Inf(-1)
		}
		return 0
	}
	return (obs - mean) / std
}

// ramp maps x linearly from [lo,hi] onto [0,1], clamping outside.
func ramp(x, lo, hi float64) float64 {
	if x <= lo {
		return 0
	}
	if x >= hi {
		return 1
	}
	return (x - lo) / (hi - lo)
}
