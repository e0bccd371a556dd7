package sam

import (
	"encoding/json"
	"reflect"
	"testing"

	"samnet/internal/routing"
	"samnet/internal/topology"
)

// fuzzRoutes decodes bytes into a route set: bytes are node ids and zero
// terminates a route. A terminator with nothing pending emits an empty
// route, so degenerate shapes (empty routes, single-node routes) are
// reachable.
func fuzzRoutes(data []byte) []routing.Route {
	var routes []routing.Route
	var cur routing.Route
	for _, b := range data {
		if b == 0 {
			routes = append(routes, cur)
			cur = nil
			continue
		}
		cur = append(cur, topology.NodeID(b))
	}
	if len(cur) > 0 {
		routes = append(routes, cur)
	}
	return routes
}

// FuzzAnalyze feeds Analyze arbitrary byte-derived route sets and checks its
// invariants never break: no panics, frequencies sum to 1, phi and p_max in
// range, and the suspect link (when N > 0) is one of the counted links. The
// whole Stats must also equal the map-based reference's.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 5, 6, 0})
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9, 9})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3})
	// Degenerate shapes the detection service must survive: empty routes,
	// a lone single-node route, a route walking the same link back and
	// forth (duplicate links inside one route), a one-route set, and a set
	// where every route is the same.
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{7, 0})
	f.Add([]byte{1, 2, 1, 2, 1, 0})
	f.Add([]byte{3, 4, 5})
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		routes := fuzzRoutes(data)

		s := Analyze(routes)
		if want := analyzeReference(routes); !reflect.DeepEqual(s, want) {
			t.Fatalf("Analyze(%v)\n got  %+v\n want %+v", routes, s, want)
		}
		if s.N == 0 {
			if s.PMax != 0 || s.Phi != 0 {
				t.Fatalf("empty stats carry values: %+v", s)
			}
			return
		}
		if s.PMax <= 0 || s.PMax > 1 || s.Phi < 0 || s.Phi > 1 {
			t.Fatalf("out-of-range statistics: %+v", s)
		}
		var sum float64
		found := false
		for _, lc := range s.ByLink {
			sum += lc.P
			if lc.Link == s.Suspect {
				found = true
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("frequencies sum to %v", sum)
		}
		if !found {
			t.Fatalf("suspect %v is not a counted link", s.Suspect)
		}
	})
}

// FuzzProfileJSON throws arbitrary documents at the profile decoder: decoding
// must never panic, and any document that decodes must survive a
// marshal/unmarshal round trip unchanged — the invariant the service's
// snapshot restore leans on for on-disk state.
func FuzzProfileJSON(f *testing.F) {
	f.Add(`{"label":"p","runs":2,"pmf_counts":[1,1],"pmf_total":2}`)
	f.Add(`{"label":"legacy","pmf_counts":[3],"pmf_total":3}`) // pre-Runs document
	f.Add(`{"label":"x","pmf_counts":[],"pmf_total":0}`)
	f.Add(`{"label":"x","pmf_counts":[-1],"pmf_total":-1}`)
	f.Add(`{"runs":-5,"pmf_counts":[1],"pmf_total":1}`)
	f.Add(`null`)
	f.Add(`{}`)
	f.Add(`{"pmax":{"Mean":1e308},"pmf_counts":[1],"pmf_total":1}`)
	f.Fuzz(func(t *testing.T, doc string) {
		var p Profile
		if err := json.Unmarshal([]byte(doc), &p); err != nil {
			return // refused documents are fine; they must just not panic
		}
		if p.PMF == nil || p.Runs < 0 {
			t.Fatalf("decoder accepted an invalid profile: %+v from %q", p, doc)
		}
		blob, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("accepted profile does not re-marshal: %v", err)
		}
		var back Profile
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-marshaled profile does not decode: %v (%s)", err, blob)
		}
		if back.Label != p.Label || back.Runs != p.Runs || back.PMF.Total != p.PMF.Total {
			t.Fatalf("profile changed across round trip: %+v vs %+v", back, p)
		}
	})
}

// FuzzTrainerDetector drives the full train-then-score path on byte-derived
// route sets: training must never panic, a trained profile must survive a
// JSON round trip, and every verdict must keep lambda and the adaptive
// update within their contracts — the same invariants the detection service
// leans on for untrusted inputs.
func FuzzTrainerDetector(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 4, 3, 0}, []byte{1, 2, 3, 0, 1, 2, 3, 0})
	f.Add([]byte{}, []byte{5, 6})
	f.Add([]byte{7, 0, 0, 7, 8}, []byte{0})
	f.Add([]byte{1, 2, 1, 2, 1, 0, 3, 4, 0}, []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, trainData, scoreData []byte) {
		tr := NewTrainer("fuzz", 0)
		tr.ObserveRoutes(fuzzRoutes(trainData))
		profile, err := tr.Profile()
		if err != nil {
			return // nothing informative observed; that's a valid outcome
		}

		blob, err := json.Marshal(profile)
		if err != nil {
			t.Fatalf("marshal trained profile: %v", err)
		}
		var back Profile
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("round-trip trained profile: %v", err)
		}
		if back.PMax.Mean != profile.PMax.Mean || back.PMF.Total != profile.PMF.Total {
			t.Fatalf("profile changed across JSON round trip: %+v vs %+v", back, *profile)
		}

		det := NewDetector(back.Clone(), DetectorConfig{})
		s := Analyze(fuzzRoutes(scoreData))
		v := det.Evaluate(s)
		if v.Lambda < 0 || v.Lambda > 1 {
			t.Fatalf("lambda %v out of [0,1]", v.Lambda)
		}
		if s.N == 0 && v.Decision != Normal {
			t.Fatalf("empty route set judged %v", v.Decision)
		}
		det.Update(s, v.Lambda)
		pmaxMean, phiMean := det.AdaptiveMeans()
		if pmaxMean < 0 || pmaxMean > 1 || phiMean < 0 || phiMean > 1 {
			t.Fatalf("adaptive means left [0,1]: pmax %v phi %v", pmaxMean, phiMean)
		}
	})
}
