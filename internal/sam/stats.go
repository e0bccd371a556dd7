// Package sam implements the paper's contribution: Statistical Analysis of
// Multi-path routing (SAM). Given the set R of routes obtained by one route
// discovery, SAM computes link-frequency statistics — the maximum relative
// frequency p_max and the normalized top-two gap phi — and compares them (and
// the full PMF of relative frequencies) against a profile trained under
// normal conditions. A wormhole makes its tunnel link appear in nearly every
// route, so both statistics jump; the most frequent link then localizes the
// attacker pair. No time synchronization, GPS, or protocol changes are
// needed: SAM consumes only information multi-path routing already collects.
package sam

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"samnet/internal/routing"
	"samnet/internal/stats"
	"samnet/internal/topology"
)

// LinkCount pairs a distinct link with its occurrence count n_i and relative
// frequency p_i = n_i/N.
type LinkCount struct {
	Link  topology.Link
	Count int
	P     float64
}

// Stats holds the statistics of one route set R, using the paper's notation:
// L is the set of distinct links, n_i the occurrences of link i, N the total
// (non-distinct) link count, p_i = n_i/N, PMax = max p_i, and
// Phi = (n_max - n_2nd) / n_max.
type Stats struct {
	Routes int // |R|
	N      int // total non-distinct links across R

	// ByLink lists every distinct link sorted by decreasing count (ties:
	// ascending link order), so ByLink[0] is the most frequent link.
	ByLink []LinkCount

	PMax    float64       // maximum relative frequency
	MaxLink topology.Link // the link achieving PMax
	NMax    int           // n_max
	N2nd    int           // n_2nd: highest count among other links
	Phi     float64       // (n_max - n_2nd)/n_max; 0 if N == 0

	// Suspect is the localization answer: the accused link. Usually it is
	// MaxLink, but when several links tie at the maximum (they then lie on
	// every route), links incident to the source or destination are
	// discarded — a bottleneck at an endpoint is expected, not evidence —
	// and the middle of the remaining chain is accused: a wormhole's entry
	// and exit links tie with the tunnel itself, and the tunnel sits
	// between them.
	Suspect topology.Link
}

// scratch holds the per-call working state of Analyze. Link counting is the
// hot path of every experiment run and every service request, so the count
// table is pooled and reused instead of reallocated per route set; only the
// ByLink slice (which the returned Stats owns) is freshly allocated.
//
// The count table is open-addressed with linear probing. Its slot count is
// a power of two and at least twice the call's N, so at most half the slots
// fill whatever the links are, and it works for any NodeID: links are
// stored whole, not packed into a key. used lists the occupied slots in
// first-use order, so a reset zeroes only those. A zero count marks an
// empty slot.
//
// Route sets can come from request bodies, so the hash is keyed: every call
// draws fresh random multipliers. Node IDs picked to collide under a known
// hash would pile every link into one probe cluster and make counting
// quadratic; under an unknown key they spread like any other IDs. ByLink's
// order never depends on the hash.
type scratch struct {
	slots  []linkSlot
	shift  uint   // 64 - log2(len(slots)): hashes keep their high bits
	k1, k2 uint64 // this call's hash key, both odd
	used   []int
	// next[c] is where the next link of count c lands in ByLink while
	// ByLink is bucketed by count.
	next []int
}

type linkSlot struct {
	link  topology.Link
	count int
}

// maxRetainedSlots caps the count table a pooled scratch may keep (a
// 384 KiB table, N up to 8192): a scratch grown past it by one huge route
// set is dropped instead of pinning its memory in the pool.
const maxRetainedSlots = 1 << 14

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Analyze computes the SAM statistics of a route set.
func Analyze(routes []routing.Route) Stats {
	sc := scratchPool.Get().(*scratch)
	s := sc.analyze(routes)
	if cap(sc.slots) <= maxRetainedSlots {
		scratchPool.Put(sc)
	}
	return s
}

// analyze computes the statistics with sc's table and leaves it empty.
func (sc *scratch) analyze(routes []routing.Route) Stats {
	s := Stats{Routes: len(routes)}
	for _, r := range routes {
		if len(r) > 1 {
			s.N += len(r) - 1
		}
	}
	if s.N == 0 {
		return s
	}
	sc.rekey()
	sc.countLinks(routes, s.N)
	s.ByLink = sc.byLink(s.N)
	top := s.ByLink[0]
	s.MaxLink = top.Link
	s.NMax = top.Count
	s.PMax = top.P
	if len(s.ByLink) > 1 {
		s.N2nd = s.ByLink[1].Count
	}
	// Phi = (n_max - n_2nd)/n_max. When two links tie for the maximum,
	// n_2nd == n_max and Phi = 0 — the paper's special case (attackers in
	// the same row/column as source or destination).
	s.Phi = float64(s.NMax-s.N2nd) / float64(s.NMax)
	s.Suspect = sc.localize(routes, s)
	sc.reset()
	return s
}

// rekey draws a new hash key. The table must be empty.
func (sc *scratch) rekey() {
	sc.k1, sc.k2 = rand.Uint64()|1, rand.Uint64()|1
}

// home returns l's home slot. Under a random key the multiply-add gives two
// distinct links whose IDs differ by less than 2^32 the same 64-bit value
// with odds below 2^-31; the xor-shift and multiply then spread those
// values over the table. Without that last step, sets with additive
// structure, such as IDs in an arithmetic progression, fill long probe
// clusters under many keys.
func (sc *scratch) home(l topology.Link) int {
	h := uint64(l.A)*sc.k1 + uint64(l.B)*sc.k2
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return int(h >> sc.shift)
}

// countLinks sizes the table for n links and counts every link of routes,
// in place rather than through a Route.Links() slice per route.
func (sc *scratch) countLinks(routes []routing.Route, n int) {
	logSize := uint(bits.Len(uint(2*n - 1)))
	size := 1 << logSize
	if cap(sc.slots) < size {
		sc.slots = make([]linkSlot, size)
	}
	// A reset table is all zero up to its capacity, so a smaller view of
	// a larger table is empty too.
	sc.slots = sc.slots[:size]
	sc.shift = 64 - logSize
	for _, r := range routes {
		for i := 0; i+1 < len(r); i++ {
			l := topology.MkLink(r[i], r[i+1])
			j := sc.find(l)
			sl := &sc.slots[j]
			if sl.count == 0 {
				sl.link = l
				sc.used = append(sc.used, j)
			}
			sl.count++
		}
	}
}

// find returns the slot holding l, or the empty slot where l belongs.
func (sc *scratch) find(l topology.Link) int {
	slots := sc.slots
	j := sc.home(l)
	for slots[j].count != 0 && slots[j].link != l {
		j = (j + 1) & (len(slots) - 1)
	}
	return j
}

// countOf returns the occurrences of l counted by countLinks.
func (sc *scratch) countOf(l topology.Link) int { return sc.slots[sc.find(l)].count }

// byLink lists the counted links in Stats.ByLink order. One counting pass
// buckets them by count, highest first; only runs of equal counts are then
// sorted, by link.
func (sc *scratch) byLink(n int) []LinkCount {
	maxCount := 0
	for _, j := range sc.used {
		maxCount = max(maxCount, sc.slots[j].count)
	}
	if cap(sc.next) <= maxCount {
		sc.next = make([]int, maxCount+1)
	}
	next := sc.next[:maxCount+1]
	clear(next)
	for _, j := range sc.used {
		next[sc.slots[j].count]++
	}
	at := 0
	for c := maxCount; c > 0; c-- {
		at, next[c] = at+next[c], at
	}
	out := make([]LinkCount, len(sc.used))
	for _, j := range sc.used {
		sl := &sc.slots[j]
		out[next[sl.count]] = LinkCount{Link: sl.link, Count: sl.count, P: float64(sl.count) / float64(n)}
		next[sl.count]++
	}
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && out[hi].Count == out[lo].Count {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(out[lo:hi], compareLinks)
		}
		lo = hi
	}
	return out
}

// compareLinks orders equal-count links by ascending endpoints.
func compareLinks(a, b LinkCount) int {
	if c := cmp.Compare(a.Link.A, b.Link.A); c != 0 {
		return c
	}
	return cmp.Compare(a.Link.B, b.Link.B)
}

// reset zeroes the slots the last call used, leaving the table empty.
func (sc *scratch) reset() {
	for _, j := range sc.used {
		sc.slots[j] = linkSlot{}
	}
	sc.used = sc.used[:0]
}

// localize picks the accused link from the statistics. See Stats.Suspect.
// The tied links are those the table counted n_max times; asking the table
// keeps a long single route, whose links all tie, linear.
func (sc *scratch) localize(routes []routing.Route, s Stats) topology.Link {
	if len(s.ByLink) == 1 || s.ByLink[1].Count != s.NMax {
		// The common case: a unique maximum needs no tie-breaking state.
		return s.MaxLink
	}
	// Every tied link appears n_max times; when n_max equals the route
	// count they all lie on every route, so the first route orders them.
	// Degenerate sets may open with empty or single-node routes that carry
	// no links; skip to the first route that can order anything.
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
	// The tied links along ref form the ordered chain; those touching
	// neither src nor dst form the filtered one. Count both, then walk
	// ref again to the middle of the filtered chain, or of the ordered
	// chain when nothing survives the filter.
	ordered, filtered := 0, 0
	for i := 0; i+1 < len(ref); i++ {
		l := topology.MkLink(ref[i], ref[i+1])
		if sc.countOf(l) != s.NMax {
			continue
		}
		ordered++
		if !touches(l, src, dst) {
			filtered++
		}
	}
	want, onlyFiltered := ordered/2, false
	switch {
	case filtered > 0:
		want, onlyFiltered = filtered/2, true
	case ordered == 0:
		return s.MaxLink
	}
	for i := 0; i+1 < len(ref); i++ {
		l := topology.MkLink(ref[i], ref[i+1])
		if sc.countOf(l) != s.NMax || onlyFiltered && touches(l, src, dst) {
			continue
		}
		if want == 0 {
			return l
		}
		want--
	}
	return s.MaxLink // unreachable: the first walk counted the chain
}

// touches reports whether l is incident to src or dst.
func touches(l topology.Link, src, dst topology.NodeID) bool {
	return l.A == src || l.B == src || l.A == dst || l.B == dst
}

// tvDistance is stats.TVDistance(s.PMF(p.Bins()), p) without building the
// PMF. ByLink runs from the highest frequency down, so walking it backwards
// meets the bins in ascending order, and the sum adds the same terms in the
// same order as TVDistance: the result is bit-identical.
func (s Stats) tvDistance(p *stats.PMF) float64 {
	if len(s.ByLink) == 0 || p.Total == 0 {
		return 0
	}
	total := float64(len(s.ByLink))
	j := len(s.ByLink) - 1
	var d float64
	for i := range p.Counts {
		n := 0
		for ; j >= 0 && p.BinOf(s.ByLink[j].P) <= i; j-- {
			n++
		}
		d += math.Abs(float64(n)/total - p.Prob(i))
	}
	return d / 2
}

// Frequencies returns all relative frequencies p_i (the samples whose PMF
// Fig. 5 plots), in ByLink order.
func (s Stats) Frequencies() []float64 {
	out := make([]float64, len(s.ByLink))
	for i, lc := range s.ByLink {
		out[i] = lc.P
	}
	return out
}

// PMF bins the relative frequencies into a stats.PMF with the given bin
// count.
func (s Stats) PMF(bins int) *stats.PMF {
	p := stats.NewPMF(bins)
	for _, lc := range s.ByLink {
		p.Add(lc.P)
	}
	return p
}

// TopLinks returns the k most frequent links (fewer if not available).
func (s Stats) TopLinks(k int) []LinkCount {
	if k > len(s.ByLink) {
		k = len(s.ByLink)
	}
	return s.ByLink[:k]
}

// OutlierLinks returns every link whose relative frequency is at least
// cutoff. With multiple wormholes, each tunnel shows up as its own outlier;
// localization for Fig. 15 uses this.
func (s Stats) OutlierLinks(cutoff float64) []LinkCount {
	var out []LinkCount
	for _, lc := range s.ByLink {
		if lc.P >= cutoff {
			out = append(out, lc)
		} else {
			break // ByLink is sorted by decreasing count
		}
	}
	return out
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("routes=%d N=%d distinct=%d pmax=%.4f (link %s) phi=%.4f",
		s.Routes, s.N, len(s.ByLink), s.PMax, s.MaxLink, s.Phi)
}
