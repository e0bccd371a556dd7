package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"samnet/internal/routing"
	"samnet/internal/sam"
	"samnet/internal/service"
	"samnet/internal/topology"
)

// memWriter is an in-memory http.ResponseWriter, so a handler can be timed
// with no socket under it.
type memWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

func (w *memWriter) Flush() {}

// memCall serves one in-memory request, reusing the writer and request.
type memCall struct {
	h    http.Handler
	w    memWriter
	req  *http.Request
	body bytes.Reader
}

func newMemCall(h http.Handler, path string) *memCall {
	c := &memCall{h: h, w: memWriter{h: http.Header{}}}
	c.req, _ = http.NewRequest(http.MethodPost, path, nil) // constant method and path cannot fail
	c.req.Header.Set("Content-Type", "application/json")
	return c
}

func (c *memCall) serve(body []byte) int {
	clear(c.w.h)
	c.w.code = 0
	c.w.buf.Reset()
	c.body.Reset(body)
	c.req.Body = io.NopCloser(&c.body)
	c.req.ContentLength = int64(len(body))
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.code
}

// serveProbe holds the handlers and inputs the traced serving driver times.
type serveProbe struct {
	e       *env
	memSvc  *service.Service // trained like the replicas, never on a socket
	detect  *memCall
	stream  *memCall
	train   *memCall
	streamB []byte // the whole corpus as one NDJSON body
	profile *sam.Profile
	sets    [][]routing.Route
}

func newServeProbe(e *env) (*serveProbe, error) {
	c := e.corpus
	p := &serveProbe{e: e, memSvc: newService()}
	trainCall := newMemCall(p.memSvc.Handler(), "/")
	for i, name := range c.names {
		trainCall.req.URL.Path = "/v1/profiles/" + name + "/train"
		if code := trainCall.serve(c.trainBodies[i]); code != http.StatusOK {
			return nil, fmt.Errorf("in-memory training of %s: status %d", name, code)
		}
	}
	p.detect = newMemCall(p.memSvc.Handler(), "/v1/detect")
	p.stream = newMemCall(p.memSvc.Handler(), "/v1/detect/stream")
	p.train = newMemCall(p.memSvc.Handler(), "/v1/profiles/scratch/train")
	for _, it := range c.items {
		p.streamB = append(append(p.streamB, it.body...), '\n')
	}
	tr := sam.NewTrainer("bench", 0)
	for _, set := range c.train {
		tr.ObserveRoutes(toRoutes(set))
		p.sets = append(p.sets, toRoutes(set))
	}
	prof, err := tr.Profile()
	if err != nil {
		return nil, err
	}
	p.profile = prof
	return p, nil
}

func toRoutes(raw [][]int) []routing.Route {
	out := make([]routing.Route, len(raw))
	for i, r := range raw {
		out[i] = make(routing.Route, len(r))
		for j, id := range r {
			out[i][j] = topology.NodeID(id)
		}
	}
	return out
}

// pass times every layer once per corpus item and returns the wall time.
// Each call is its own root span: the layers of one request are timed in
// separate calls on the same body, and per-layer costs are the differences.
func (p *serveProbe) pass(rec *recorder) (time.Duration, error) {
	c := p.e.corpus
	det := sam.NewDetector(p.profile, sam.DetectorConfig{})
	t0 := time.Now()
	for i := range c.items {
		it := &c.items[i]
		s := timed(rec, "sam.analyze", 0, func() sam.Stats { return sam.Analyze(it.routes) })
		timed(rec, "sam.evaluate", 0, func() sam.Verdict {
			v := det.Evaluate(s)
			det.Update(s, v.Lambda)
			return v
		})
		if code := timed(rec, "service.detect", 0, func() int { return p.detect.serve(it.body) }); code != http.StatusOK {
			return 0, fmt.Errorf("in-memory detect: status %d", code)
		}
		if err := p.rtt(rec, "http.replica", p.e.replica, it.body); err != nil {
			return 0, err
		}
		if p.e.gateway != "" {
			if err := p.rtt(rec, "cluster.gateway", p.e.gateway, it.body); err != nil {
				return 0, err
			}
		}
	}
	if code := timed(rec, "service.stream", 0, func() int { return p.stream.serve(p.streamB) }); code != http.StatusOK {
		return 0, fmt.Errorf("in-memory stream: status %d", code)
	}
	if code := timed(rec, "service.train", 0, func() int { return p.train.serve(c.trainBodies[0]) }); code != http.StatusOK {
		return 0, fmt.Errorf("in-memory train: status %d", code)
	}
	timed(rec, "sam.train", 0, func() error {
		tr := sam.NewTrainer("bench", 0)
		for _, set := range p.sets {
			tr.ObserveRoutes(set)
		}
		_, err := tr.Profile()
		return err
	})
	return time.Since(t0), nil
}

// rtt times one detect round trip over loopback.
func (p *serveProbe) rtt(rec *recorder, name, base string, body []byte) error {
	sp := rec.begin(name, 0)
	status, _, err := post(p.e.client, base+"/v1/detect", body)
	rec.end(sp)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("%s round trip: status %d: %v", name, status, err)
	}
	return nil
}

// detectAllocs returns the heap allocations of one in-memory detect call.
func (p *serveProbe) detectAllocs() float64 {
	items := p.e.corpus.items
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, it := range items {
		p.detect.serve(it.body)
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(len(items))
}

func traceServe(b *bench) error {
	rec := newRecorder(true)
	e, err := setupServe(b, rec)
	if err != nil {
		return err
	}
	defer e.close()
	if err := checkedVerdictPass(b, e); err != nil {
		return err
	}
	p, err := newServeProbe(e)
	if err != nil {
		return err
	}
	defer p.memSvc.Close()
	setupSpans := len(rec.spans)

	// Alternate untraced and traced passes over the corpus: the ratio of
	// their medians is the tracing overhead.
	budget := b.seconds
	if b.workload == "serve-fleet" {
		budget /= 2 // the rest drives the open-loop generator
	}
	off := newRecorder(false)
	var onWalls, offWalls []float64
	var windows []interval
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		w, err := p.pass(off)
		if err != nil {
			return err
		}
		offWalls = append(offWalls, w.Seconds())
		lo := rec.now()
		if w, err = p.pass(rec); err != nil {
			return err
		}
		onWalls = append(onWalls, w.Seconds())
		windows = append(windows, interval{lo, rec.now()})
	}
	b.count("trace", int64(len(onWalls)+len(offWalls))*int64(len(e.corpus.items)), 0)
	b.spans = rec.spans

	names := byName(rec.spans[setupSpans:])
	setupNames := byName(rec.spans[:setupSpans])
	analyze := names["sam.analyze"].meanUS()
	evaluate := names["sam.evaluate"].meanUS()
	handler := names["service.detect"].meanUS()
	replica := names["http.replica"].meanUS()
	streamLine := names["service.stream"].meanUS() / float64(len(e.corpus.items))
	b.set("topology.grid_us", setupNames["topology.grid"].meanUS(), "us")
	b.set("routing.mr_discover_us", setupNames["routing.mr_discover"].meanUS(), "us")
	size := "small"
	if serveSpecs[b.workload].topo != "cluster" {
		size = "large"
	}
	b.set("sam.analyze_"+size+"_us", analyze, "us")
	b.set("sam.evaluate_us", evaluate, "us")
	b.set("sam.train_us", names["sam.train"].meanUS(), "us")
	b.set("service.detect_handler_us", handler, "us")
	b.set("service.wire_us", handler-analyze-evaluate, "us")
	b.set("service.stream_line_us", streamLine, "us")
	b.set("service.train_handler_us", names["service.train"].meanUS(), "us")
	b.set("service.detect_allocs", p.detectAllocs(), "count")
	b.set("http.rtt_us", replica-handler, "us")

	// Per-op decomposition into layers: on serve-stream an op is one line
	// of the in-memory stream; on serve-fleet one detect through the
	// gateway, which adds the HTTP hop to the replica and the gateway hop.
	self := map[string]float64{"sam": analyze + evaluate}
	if e.gateway != "" {
		hop := names["cluster.gateway"].meanUS() - replica
		b.set("cluster.hop_us", hop, "us")
		self["service"] = handler - analyze - evaluate
		self["http"] = replica - handler
		self["cluster"] = hop
	} else {
		self["service"] = streamLine - analyze - evaluate
	}
	shares := map[string]int64{}
	for k, v := range self {
		shares[k] = int64(max(v, 0) * 1e3)
	}
	setShares(b, shares)

	b.set("trace.coverage", windowCoverage(rec.spans[setupSpans:], windows), "ratio")
	b.set("trace.overhead", median(onWalls)/median(offWalls), "ratio")

	if e.gateway != "" {
		t, _ := fleetLoad(e, b.seconds-budget)
		b.count("load", t.attempted, t.failed)
		late, _ := tail(t.late)
		b.set("loadgen.late_p99_ms", late.Value, "ms")
		b.note("loadgen lateness: p%g over n=%d requests", late.Q*100, late.N)
	}
	return nil
}
