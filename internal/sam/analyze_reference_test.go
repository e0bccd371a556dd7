package sam

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"samnet/internal/routing"
	"samnet/internal/stats"
	"samnet/internal/topology"
)

// analyzeReference is the map-based Analyze the open-addressed count table
// replaced, kept as the reference the table must match field for field. It
// orders ties with cmp.Compare, as Analyze does.
func analyzeReference(routes []routing.Route) Stats {
	var s Stats
	s.Routes = len(routes)
	counts := make(map[topology.Link]int)
	for _, r := range routes {
		for i := 0; i+1 < len(r); i++ {
			counts[topology.MkLink(r[i], r[i+1])]++
		}
		if len(r) > 1 {
			s.N += len(r) - 1
		}
	}
	if s.N == 0 {
		return s
	}
	s.ByLink = make([]LinkCount, 0, len(counts))
	for l, c := range counts {
		s.ByLink = append(s.ByLink, LinkCount{Link: l, Count: c, P: float64(c) / float64(s.N)})
	}
	slices.SortFunc(s.ByLink, func(a, b LinkCount) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if c := cmp.Compare(a.Link.A, b.Link.A); c != 0 {
			return c
		}
		return cmp.Compare(a.Link.B, b.Link.B)
	})
	top := s.ByLink[0]
	s.MaxLink = top.Link
	s.NMax = top.Count
	s.PMax = top.P
	if len(s.ByLink) > 1 {
		s.N2nd = s.ByLink[1].Count
	}
	s.Phi = float64(s.NMax-s.N2nd) / float64(s.NMax)
	s.Suspect = localizeReference(routes, s)
	return s
}

// localizeReference is the map-and-slice localize the counting walk
// replaced.
func localizeReference(routes []routing.Route, s Stats) topology.Link {
	ties := 0
	for _, lc := range s.ByLink {
		if lc.Count != s.NMax {
			break
		}
		ties++
	}
	if ties == 1 {
		return s.MaxLink
	}
	top := make(map[topology.Link]bool, ties)
	for _, lc := range s.ByLink[:ties] {
		top[lc.Link] = true
	}
	var ref routing.Route
	for _, r := range routes {
		if len(r) >= 2 {
			ref = r
			break
		}
	}
	if ref == nil {
		return s.MaxLink
	}
	src, dst := ref[0], ref[len(ref)-1]
	var ordered, filtered []topology.Link
	for i := 0; i+1 < len(ref); i++ {
		l := topology.MkLink(ref[i], ref[i+1])
		if !top[l] {
			continue
		}
		ordered = append(ordered, l)
		if l.A != src && l.B != src && l.A != dst && l.B != dst {
			filtered = append(filtered, l)
		}
	}
	switch {
	case len(filtered) > 0:
		return filtered[len(filtered)/2]
	case len(ordered) > 0:
		return ordered[len(ordered)/2]
	default:
		return s.MaxLink
	}
}

// matchesReference fails t unless Analyze and the reference agree on the
// whole Stats: ByLink order, Suspect and every float.
func matchesReference(t *testing.T, routes []routing.Route) {
	t.Helper()
	if got, want := Analyze(routes), analyzeReference(routes); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(%v)\n got  %+v\n want %+v", routes, got, want)
	}
}

// idDraw draws node IDs of one shape for randomRouteSet.
type idDraw func(rng *rand.Rand) topology.NodeID

var idShapes = map[string]idDraw{
	// Small IDs: many repeated links and ties.
	"dense": func(rng *rand.Rand) topology.NodeID { return topology.NodeID(rng.IntN(12)) },
	// The wire's whole ID range.
	"wide": func(rng *rand.Rand) topology.NodeID { return topology.NodeID(rng.IntN(1<<30 + 1)) },
	// Multiples of 2^40: every ID agrees in its low 40 bits, so a hash
	// that kept only low bits would send every link to one slot.
	"aligned": func(rng *rand.Rand) topology.NodeID { return topology.NodeID(rng.IntN(16)) << 40 },
	// Both ends of the int range.
	"extreme": func(rng *rand.Rand) topology.NodeID {
		if rng.IntN(2) == 0 {
			return topology.NodeID(math.MinInt + rng.IntN(6))
		}
		return topology.NodeID(math.MaxInt - rng.IntN(6))
	},
}

// randomRouteSet draws routes of up to maxLen nodes with a sprinkling of
// the degenerate shapes: empty and single-node routes, back-and-forth
// walks over one link, and reversed copies of earlier routes.
func randomRouteSet(rng *rand.Rand, id idDraw, routes, maxLen int) []routing.Route {
	set := make([]routing.Route, 0, routes)
	for len(set) < routes {
		switch k := rng.IntN(10); {
		case k == 0:
			set = append(set, nil)
		case k == 1:
			set = append(set, routing.Route{id(rng)})
		case k == 2:
			a, b := id(rng), id(rng)
			r := routing.Route{a}
			for i := rng.IntN(5); i >= 0; i-- {
				r = append(r, b, a)
			}
			set = append(set, r)
		case k == 3 && len(set) > 0:
			r := slices.Clone(set[rng.IntN(len(set))])
			slices.Reverse(r)
			set = append(set, r)
		default:
			r := make(routing.Route, 2+rng.IntN(maxLen-1))
			for i := range r {
				r[i] = id(rng)
			}
			set = append(set, r)
		}
	}
	return set
}

// TestAnalyzeMatchesReference checks the count table against the map
// reference on random sets of every ID shape, plus fixed degenerate sets.
func TestAnalyzeMatchesReference(t *testing.T) {
	fixed := [][]routing.Route{
		nil,
		{},
		{nil},
		{{7}},
		{nil, {3}, {}},
		{{0, 1}, {1, 0}},
		{{1, 2, 1, 2, 1}},
		{{0, 1, 2, 3}, {3, 2, 1, 0}},
		{{0, 1, 2, 1, 0}},
		{nil, {0, 1, 5, 6, 7, 9}, {0, 1, 5, 6, 8, 9}},
		{{5}, {0, 5, 9}},
		{{0, 1 << 30}, {1 << 30, 0}, {0, 1<<30 - 1}},
	}
	for _, routes := range fixed {
		matchesReference(t, routes)
	}
	for name, id := range idShapes {
		rng := rand.New(rand.NewPCG(uint64(len(name)), 17))
		for i := 0; i < 300; i++ {
			matchesReference(t, randomRouteSet(rng, id, 1+rng.IntN(12), 8))
		}
	}
}

// TestAnalyzeScratchReuse runs a large set and then a small one on the same
// scratch, and the reverse: a table reused at a smaller or larger size must
// start empty.
func TestAnalyzeScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	large := randomRouteSet(rng, idShapes["wide"], 400, 30)
	small := randomRouteSet(rng, idShapes["dense"], 3, 4)
	tied := []routing.Route{{0, 1, 5, 6, 7, 9}, {0, 1, 5, 6, 8, 9}}
	for _, order := range [][][]routing.Route{
		{large, small, tied, large},
		{small, tied, large, small},
	} {
		sc := new(scratch)
		for _, routes := range order {
			if got, want := sc.analyze(routes), analyzeReference(routes); !reflect.DeepEqual(got, want) {
				t.Fatalf("reused scratch: got %+v\nwant %+v", got, want)
			}
			if len(sc.used) != 0 || slices.ContainsFunc(sc.slots[:cap(sc.slots)], func(sl linkSlot) bool { return sl != linkSlot{} }) {
				t.Fatal("analyze left the table dirty")
			}
		}
	}
}

// TestAnalyzeTieOrderExtremeIDs pins ByLink's tie order for IDs more than
// 2^63 apart, where subtracting IDs to compare them overflows.
func TestAnalyzeTieOrderExtremeIDs(t *testing.T) {
	lo, hi := topology.NodeID(math.MinInt), topology.NodeID(math.MaxInt)
	s := Analyze([]routing.Route{{hi - 1, hi}, {lo, hi}, {lo, lo + 1}, {lo + 2, -5}})
	want := []topology.Link{{A: lo, B: lo + 1}, {A: lo, B: hi}, {A: lo + 2, B: -5}, {A: hi - 1, B: hi}}
	for i, l := range want {
		if s.ByLink[i].Link != l {
			t.Fatalf("ByLink[%d] = %v, want %v (all: %+v)", i, s.ByLink[i].Link, l, s.ByLink)
		}
	}
	matchesReference(t, []routing.Route{{hi - 1, hi}, {lo, hi}, {lo, lo + 1}, {lo + 2, -5}})
}

// TestAnalyzeConcurrent runs Analyze from 4 goroutines on one pool; under
// -race it checks that pooled tables are never shared between calls.
func TestAnalyzeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	sets := make([][]routing.Route, 16)
	want := make([]Stats, len(sets))
	for i := range sets {
		sets[i] = randomRouteSet(rng, idShapes["dense"], 1+rng.IntN(40), 10)
		want[i] = analyzeReference(sets[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g + 3*k) % len(sets)
				if got := Analyze(sets[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d set %d: got %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTVDistanceMatchesPMF checks that the TV distance summed from ByLink
// is bit-identical to TVDistance over the binned PMF.
func TestTVDistanceMatchesPMF(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, bins := range []int{1, 7, DefaultPMFBins, 200} {
		for i := 0; i < 200; i++ {
			s := Analyze(randomRouteSet(rng, idShapes["dense"], 1+rng.IntN(20), 8))
			profile := stats.NewPMF(bins)
			for j := rng.IntN(40); j > 0; j-- {
				profile.Add(rng.Float64())
			}
			want := 0.0
			if s.N > 0 {
				want = stats.TVDistance(s.PMF(bins), profile)
			}
			if got := s.tvDistance(profile); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bins %d: tvDistance %v, TVDistance %v (ByLink %+v)", bins, got, want, s.ByLink)
			}
		}
	}
}

// TestScoringAllocs pins the scoring path's allocations: Analyze allocates
// only the ByLink slice it returns, and the detectors and the trainer
// allocate nothing.
func TestScoringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	routes := attackRoutesForStats()
	tr := NewTrainer("allocs", 0)
	tr.ObserveRoutes([]routing.Route{{0, 1, 2}, {0, 3, 2}, {0, 4, 5, 2}})
	profile, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(routes)
	det := NewDetector(profile, DetectorConfig{})
	pmf := NewPMFDetector(profile, 0, 0)
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Analyze", 1, func() { Analyze(routes) }},
		{"Detector.Evaluate", 0, func() { det.Evaluate(s) }},
		{"PMFDetector.Evaluate", 0, func() { pmf.Evaluate(s) }},
		{"Trainer.Observe", 0, func() { tr.Observe(s) }},
	} {
		c.fn() // size the pooled scratch
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s allocates %.1f times per call, want %.0f", c.name, got, c.want)
		}
	}
}

// collidingLinks returns 2-node routes over m distinct links that all have
// a home slot below 16 in the table Analyze sizes for them, under the hash
// key (k1, k2). IDs stay in the wire's range.
func collidingLinks(m int, k1, k2 uint64) []routing.Route {
	sc := &scratch{k1: k1, k2: k2, shift: 64 - uint(bits.Len(uint(2*m-1)))}
	routes := make([]routing.Route, 0, m)
	for b := topology.NodeID(1); len(routes) < m && b <= 1<<30; b++ {
		if sc.home(topology.Link{A: 0, B: b}) < 16 {
			routes = append(routes, routing.Route{0, b})
		}
	}
	return routes
}

// displacement sums, over the links in sc's table, how far each sits past
// its home slot: the probes countLinks spent beyond one per distinct link.
func displacement(sc *scratch) int {
	d := 0
	for _, j := range sc.used {
		d += (j - sc.home(sc.slots[j].link)) & (len(sc.slots) - 1)
	}
	return d
}

// TestAnalyzeChosenCollisions builds a route set whose links all collide
// under one fixed hash key, as a client could for an unkeyed hash, and a
// set with additive structure (a plain multiply-add hash clusters it under
// many keys). Under the fixed key the first set counts in quadratic time;
// under the keys Analyze draws both stay linear, and the results still
// match the reference.
func TestAnalyzeChosenCollisions(t *testing.T) {
	const m = 2048
	const k1, k2 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	chosen := collidingLinks(m, k1, k2)
	if len(chosen) != m {
		t.Fatalf("found %d colliding links, want %d", len(chosen), m)
	}
	sc := &scratch{k1: k1, k2: k2}
	sc.countLinks(chosen, m)
	if d := displacement(sc); d < m*m/4 {
		t.Fatalf("fixed key: displacement %d, want the set to collide (>= %d)", d, m*m/4)
	}
	sc.reset()
	progression := make([]routing.Route, m)
	for i := range progression {
		progression[i] = routing.Route{topology.NodeID(i / 8), topology.NodeID(1000 + i)}
	}
	for name, routes := range map[string][]routing.Route{"chosen": chosen, "progression": progression} {
		for i := 0; i < 50; i++ {
			sc.rekey()
			sc.countLinks(routes, m)
			if d := displacement(sc); d > 4*m {
				t.Fatalf("%s set, drawn key %#x/%#x: displacement %d, want <= %d", name, sc.k1, sc.k2, d, 4*m)
			}
			sc.reset()
		}
		matchesReference(t, routes)
	}
}
