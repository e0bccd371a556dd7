package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<operation>", the
// layer being one of the repository's modules. Times are nanoseconds since
// the recorder's origin; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() int64 { return s.End - s.Start }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id, parent int64
	name       string
	start      int64
}

// recorder keeps spans in memory until the run ends. A recorder that is off
// hands out zero spans and records nothing, so the same driver code runs
// traced and untraced and the difference between the two is the tracing
// overhead.
type recorder struct {
	on     bool
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span under parent (0 for a root).
func (r *recorder) begin(name string, parent int64) openSpan {
	if !r.on {
		return openSpan{}
	}
	return openSpan{id: r.nextID.Add(1), parent: parent, name: name, start: r.now()}
}

// end closes s and keeps it.
func (r *recorder) end(s openSpan) {
	if !r.on {
		return
	}
	done := span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, done)
	r.mu.Unlock()
}

// timed runs fn inside a span.
func timed[T any](rec *recorder, name string, parent int64, fn func() T) T {
	sp := rec.begin(name, parent)
	v := fn()
	rec.end(sp)
	return v
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi int64 }

// unionLen returns the length of the union of ivs clipped to [lo, hi), so
// overlapping intervals are counted once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's spans, so children that overlap one another (run on
// parallel workers) are subtracted once.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// coverage returns the share of [lo, hi) that lies inside some span.
func coverage(spans []span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return float64(unionLen(ivs, lo, hi)) / float64(hi-lo)
}

// windowCoverage returns the share of the windows' total length that lies
// inside some span.
func windowCoverage(spans []span, windows []interval) float64 {
	var covered, wall float64
	for _, w := range windows {
		covered += coverage(spans, w.lo, w.hi) * float64(w.hi-w.lo)
		wall += float64(w.hi - w.lo)
	}
	if wall == 0 {
		return 0
	}
	return covered / wall
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n     int
	total int64 // ns
}

func (s spanStats) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

func byName(spans []span) map[string]spanStats {
	out := make(map[string]spanStats)
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += s.dur()
		out[s.Name] = st
	}
	return out
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
