package routing

import (
	"math/rand/v2"
	"testing"

	"samnet/internal/topology"
)

// refSharedLinks is the map-based SharedLinks the pairwise scan replaced,
// kept as the reference its results must match.
func refSharedLinks(r, s Route) int {
	set := make(map[topology.Link]bool, len(r))
	for _, l := range r.Links() {
		set[l] = true
	}
	n := 0
	for _, l := range s.Links() {
		if set[l] {
			n++
		}
	}
	return n
}

// refSelectDisjoint is SelectDisjoint with its original map of used
// candidates and map-based link sharing.
func refSelectDisjoint(candidates []Route, max int) []Route {
	if max <= 0 || len(candidates) == 0 {
		return nil
	}
	picked := []Route{candidates[0]}
	used := map[int]bool{0: true}
	for len(picked) < max && len(picked) < len(candidates) {
		best, bestShared, bestHops := -1, int(^uint(0)>>1), int(^uint(0)>>1)
		for i, c := range candidates {
			if used[i] {
				continue
			}
			shared := 0
			for _, p := range picked {
				shared += refSharedLinks(c, p)
			}
			if shared < bestShared || (shared == bestShared && c.Hops() < bestHops) {
				best, bestShared, bestHops = i, shared, c.Hops()
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		picked = append(picked, candidates[best])
	}
	return picked
}

// randomRoute draws a route over a small node set, so routes overlap often.
// Some revisit nodes or repeat a link (non-simple), some are reversed, and
// a few are degenerate (zero or one node).
func randomRoute(rng *rand.Rand) Route {
	r := make(Route, rng.IntN(8))
	for i := range r {
		r[i] = topology.NodeID(rng.IntN(10))
	}
	if len(r) > 2 && rng.IntN(4) == 0 {
		r = append(r, r[len(r)-2], r[len(r)-1]) // walk back and forth over the last link
	}
	if rng.IntN(2) == 0 {
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
	}
	return r
}

func TestSharedLinksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	for i := 0; i < 5000; i++ {
		r, s := randomRoute(rng), randomRoute(rng)
		if got, want := r.SharedLinks(s), refSharedLinks(r, s); got != want {
			t.Fatalf("%v.SharedLinks(%v) = %d, reference %d", r, s, got, want)
		}
	}
}

func TestSelectDisjointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2))
	for i := 0; i < 2000; i++ {
		cands := make([]Route, rng.IntN(9))
		for j := range cands {
			cands[j] = randomRoute(rng)
		}
		max := rng.IntN(6)
		got, want := SelectDisjoint(cands, max), refSelectDisjoint(cands, max)
		if len(got) != len(want) {
			t.Fatalf("SelectDisjoint(%v, %d) = %v, reference %v", cands, max, got, want)
		}
		for k := range got {
			if !got[k].Equal(want[k]) {
				t.Fatalf("SelectDisjoint(%v, %d) = %v, reference %v", cands, max, got, want)
			}
		}
	}
}

func TestSharedLinksZeroAlloc(t *testing.T) {
	r := Route{0, 1, 2, 3, 4, 5, 6, 7}
	s := Route{9, 7, 6, 5, 8, 1, 0}
	if got := testing.AllocsPerRun(100, func() { r.SharedLinks(s) }); got != 0 {
		t.Errorf("SharedLinks allocates %.1f times per call, want 0", got)
	}
}

// TestPathArenaContainsCollidingIDs checks the loop check on node IDs that
// share a signature bit: 3, 67 and 131 are equal mod 64, so the signature
// cannot tell them apart and the parent walk must decide.
func TestPathArenaContainsCollidingIDs(t *testing.T) {
	var a pathArena
	ref := a.push(-1, 3)
	ref = a.push(ref, 200)
	ref = a.push(ref, 131)
	branch := a.push(ref, 64)
	other := a.push(-1, 67) // a second path, sharing no entry
	cases := []struct {
		ref  int32
		id   topology.NodeID
		want bool
	}{
		{branch, 3, true},
		{branch, 131, true},
		{branch, 64, true},
		{branch, 200, true},
		{branch, 67, false},  // bit set by 3 and 131: the walk says no
		{branch, 195, false}, // 195 = 3 + 192: same bit again
		{branch, 0, false},   // bit set by 64
		{branch, 5, false},   // bit clear
		{ref, 64, false},     // the branch's node is not on its parent's path
		{other, 67, true},
		{other, 3, false},
	}
	for _, c := range cases {
		if got := a.contains(c.ref, c.id); got != c.want {
			t.Errorf("contains(%d, %d) = %v, want %v", c.ref, c.id, got, c.want)
		}
	}
}

// TestPathArenaContainsMatchesPath compares the loop check with a plain
// scan of the materialized path, on random prefix trees whose node IDs run
// well past 64 and so collide in the signature.
func TestPathArenaContainsMatchesPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 3))
	var a pathArena
	for tree := 0; tree < 50; tree++ {
		a.reset()
		for i := 0; i < 200; i++ {
			parent := int32(-1)
			if i > 0 && rng.IntN(8) != 0 {
				parent = int32(rng.IntN(i))
			}
			a.push(parent, topology.NodeID(rng.IntN(300)))
		}
		for ref := int32(0); ref < int32(len(a.node)); ref++ {
			path := a.appendPath(nil, ref)
			for id := topology.NodeID(0); id < 300; id++ {
				if got, want := a.contains(ref, id), path.Contains(id); got != want {
					t.Fatalf("contains(%d, %d) = %v, path %v", ref, id, got, path)
				}
			}
		}
	}
}
