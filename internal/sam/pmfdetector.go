package sam

import (
	"samnet/internal/topology"
)

// PMFDetector is the paper's alternative detection statistic (Section III):
// instead of thresholding p_max and phi, compare the full PMF of the
// per-link relative frequencies n/N against the trained normal-condition
// profile. "The distribution of n/N under normal condition may be obtained
// by approximation using the training set and act as a profile. Then the
// distribution of n/N obtained using real-time samples will be compared
// with the profile."
//
// Two comparisons back the decision:
//   - the total-variation distance between the live PMF and the profile PMF,
//   - the profile's own tail mass at the live p_max — "the probability of
//     high usage link" the paper says the PMF makes computable: if no normal
//     run ever produced a link this frequent, the live maximum is evidence
//     by itself.
type PMFDetector struct {
	profile *Profile
	// TVThreshold flags distributions farther than this from the profile
	// (default 0.5).
	TVThreshold float64
	// TailProb flags a live p_max whose probability under the profile is
	// below this (default 0.02).
	TailProb float64
}

// NewPMFDetector builds the alternative detector over a trained profile.
// tvThreshold and tailProb follow the package's ExplicitZero convention:
// zero selects the default, ExplicitZero selects a true zero (a zero
// TVThreshold condemns every sample by TV distance; a zero TailProb disables
// the tail test).
func NewPMFDetector(profile *Profile, tvThreshold, tailProb float64) *PMFDetector {
	if profile == nil {
		panic("sam: nil profile")
	}
	return &PMFDetector{
		profile:     profile,
		TVThreshold: resolve(tvThreshold, 0.5),
		TailProb:    resolve(tailProb, 0.02),
	}
}

// PMFVerdict reports the alternative detector's evaluation.
type PMFVerdict struct {
	Attacked bool
	// TV is the total-variation distance to the profile PMF.
	TV float64
	// TailMass is the profile's probability of seeing a link at least as
	// frequent as the live p_max.
	TailMass float64
	// ByTV and ByTail report which evidence triggered.
	ByTV, ByTail bool
	// SuspectLink mirrors Stats.Suspect.
	SuspectLink topology.Link
}

// Evaluate scores one route set's statistics.
func (d *PMFDetector) Evaluate(s Stats) PMFVerdict {
	var v PMFVerdict
	if s.N == 0 {
		return v
	}
	v.SuspectLink = s.Suspect
	v.TV = s.tvDistance(d.profile.PMF)
	v.TailMass = d.profile.PMF.TailMass(s.PMax)
	v.ByTV = v.TV >= d.TVThreshold
	v.ByTail = v.TailMass < d.TailProb
	v.Attacked = v.ByTV || v.ByTail
	return v
}

// HighUsageProbability returns the trained probability that a link's
// relative frequency reaches at least p — the theoretical-analysis handle
// the paper highlights.
func (d *PMFDetector) HighUsageProbability(p float64) float64 {
	return d.profile.PMF.TailMass(p)
}
