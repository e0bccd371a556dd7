package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"samnet/internal/attack"
	"samnet/internal/cluster"
	"samnet/internal/routing"
	"samnet/internal/routing/mr"
	"samnet/internal/service"
	"samnet/internal/sim"
	"samnet/internal/topology"
)

// serveSpec is one serving workload's corpus.
type serveSpec struct {
	topo     string // "cluster" or "uniform10x6"
	tier     int
	each     int // evaluation discoveries per condition (normal, attacked)
	profiles int // profiles the corpus is sharded over
}

// serveSpecs: serve-stream scores the large route sets of a 2-tier 10x6
// grid against one profile, so per-line decode, lookup, scoring and encode
// dominate; serve-fleet scores the cluster topology's small sets over 8
// profiles (the shard count of the fleet curve in BENCH_PR8.json), so
// per-request framing and the gateway hop dominate.
var serveSpecs = map[string]serveSpec{
	"serve-stream": {topo: "uniform10x6", tier: 2, each: 256, profiles: 1},
	"serve-fleet":  {topo: "cluster", tier: 1, each: 256, profiles: 8},
}

const (
	trainRuns    = 30  // normal discoveries each profile is trained on (samload's -train default)
	streamConns  = 2   // serve-stream connections
	streamWindow = 128 // request lines in flight per connection
	fleetConns   = 2   // serve-fleet sender connections

	// trainEvery sets serve-fleet's write share: every trainEvery-th
	// request is a train write. Nothing in the repository records a
	// production write share; 5% is an assumption (see README.md). A write
	// is the profile's own training request sent again: training
	// accumulates, so the profile's distribution, and what the detects
	// around it score against, stays the same while the trainer, the
	// profile rebuild and the store lock do the full work of a training.
	// Each profile has its own training sets, so the cost of the writes
	// averages over all of them rather than resting on 30 sets.
	trainEvery = 20

	// fleetRate is serve-fleet's offered load in requests per second, about
	// a third of what two lockstep clients reach through the gateway, so a
	// healthy fleet keeps up and latency, not throughput, shows a change.
	fleetRate = 2000.0
)

// item is one corpus route set with its ground truth and request bodies.
type item struct {
	routes  []routing.Route
	attack  bool
	profile string
	body    []byte // detect request, adaptive update on
	frozen  []byte // the same request with "update": false
	sig     []byte // the verdict's input-determined fields, from the verdict pass
}

type corpus struct {
	names       []string
	train       [][][]int // the first profile's training sets
	trainBodies [][]byte  // each profile's training request, also serve-fleet's write
	items       []item
}

func routesJSON(routes []routing.Route) [][]int {
	out := make([][]int, len(routes))
	for i, r := range routes {
		out[i] = make([]int, len(r))
		for j, id := range r {
			out[i][j] = int(id)
		}
	}
	return out
}

func buildTopology(spec serveSpec) *topology.Network {
	if spec.topo == "cluster" {
		return topology.Cluster(spec.tier, 2)
	}
	return topology.Uniform(10, 6, spec.tier, 2)
}

// discoverSets runs n multi-path discoveries on net, each a routing span.
func discoverSets(rec *recorder, net *topology.Network, n int, seed uint64) [][]routing.Route {
	rng := rand.New(rand.NewPCG(seed, 0x10ad))
	out := make([][]routing.Route, n)
	for i := range out {
		src, dst := net.PickPair(rng)
		simNet := sim.NewNetwork(net.Topo, sim.Config{Seed: seed + uint64(i)*7919})
		sp := rec.begin("routing.mr_discover", 0)
		out[i] = (&mr.Protocol{}).Discover(simNet, src, dst).Routes
		rec.end(sp)
	}
	return out
}

// makeCorpus generates the training sets and the evaluation corpus of a
// workload from its seed: normal and attacked route sets alternate, and
// consecutive pairs share a profile so every profile scores both labels.
func makeCorpus(rec *recorder, spec serveSpec, seed uint64) (*corpus, error) {
	sp := rec.begin("topology.grid", 0)
	net := buildTopology(spec)
	rec.end(sp)
	c := &corpus{}
	for i := 0; i < spec.profiles; i++ {
		c.names = append(c.names, fmt.Sprintf("p%d", i))
	}
	for i := range c.names {
		var sets [][][]int
		for _, set := range discoverSets(rec, net, trainRuns, seed+uint64(i)*5_000_000) {
			sets = append(sets, routesJSON(set))
		}
		body, err := json.Marshal(service.TrainRequest{RouteSets: sets})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			c.train = sets
		}
		c.trainBodies = append(c.trainBodies, body)
	}
	normal := discoverSets(rec, net, spec.each, seed+1_000_000)
	sc := attack.NewScenario(net, 1, attack.Forward)
	attacked := discoverSets(rec, net, spec.each, seed+2_000_000)
	sc.Teardown()

	var err error
	off := false
	for i := 0; i < 2*spec.each; i++ {
		it := item{routes: normal[i/2], attack: i%2 == 1, profile: c.names[(i/2)%len(c.names)]}
		if it.attack {
			it.routes = attacked[i/2]
		}
		raw := routesJSON(it.routes)
		if it.body, err = json.Marshal(service.DetectRequest{Profile: it.profile, Routes: raw}); err != nil {
			return nil, err
		}
		if it.frozen, err = json.Marshal(service.DetectRequest{Profile: it.profile, Routes: raw, Update: &off}); err != nil {
			return nil, err
		}
		c.items = append(c.items, it)
	}
	return c, nil
}

// server is one in-process HTTP server on a loopback port.
type server struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

func (s *server) stop() {
	s.srv.Close()
	<-s.done
}

// env is a set-up serving workload: servers, client and corpus.
type env struct {
	corpus   *corpus
	client   *http.Client
	replica  string // base URL of the lone replica (the stream server)
	gateway  string // base URL of the gateway (serve-fleet only)
	services []*service.Service
	servers  []*server
	gw       *cluster.Gateway
}

func (e *env) close() {
	for _, s := range e.servers {
		s.stop()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	for _, s := range e.services {
		s.Close()
	}
	e.client.CloseIdleConnections()
}

func newService() *service.Service { return service.New(service.Config{Workers: maxProcs}) }

// post sends one request and returns its status and body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// trainAll trains every corpus profile at base.
func trainAll(b *bench, client *http.Client, base string, c *corpus) error {
	for i, name := range c.names {
		status, body, err := post(client, base+"/v1/profiles/"+name+"/train", c.trainBodies[i])
		b.count("setup", 1, 0)
		if err != nil || status != http.StatusOK {
			b.count("setup", 0, 1)
			return fmt.Errorf("training %s at %s: status %d: %v %s", name, base, status, err, body)
		}
	}
	return nil
}

// setupServe generates the corpus and brings up the workload's servers with
// every profile trained: one replica for serve-stream; for serve-fleet two
// replicas behind a gateway plus a lone replica the gateway's verdicts are
// compared against.
func setupServe(b *bench, rec *recorder) (*env, error) {
	spec := serveSpecs[b.workload]
	c, err := makeCorpus(rec, spec, b.inputs)
	if err != nil {
		return nil, err
	}
	e := &env{corpus: c, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	serve := func(h http.Handler) (string, error) {
		s, err := startServer(h)
		if err != nil {
			return "", err
		}
		e.servers = append(e.servers, s)
		return s.base, nil
	}
	replicas := 1
	if b.workload == "serve-fleet" {
		replicas = 3
	}
	var bases []string
	for i := 0; i < replicas; i++ {
		svc := newService()
		e.services = append(e.services, svc)
		base, err := serve(svc.Handler())
		if err != nil {
			e.close()
			return nil, err
		}
		bases = append(bases, base)
	}
	e.replica = bases[0]
	if b.workload == "serve-fleet" {
		// No background health sweeps: the replicas live in this process
		// and stay up, and a sweep would add load the workload does not name.
		e.gw, err = cluster.NewGateway(cluster.GatewayConfig{Replicas: bases[1:], HealthInterval: -1})
		if err == nil {
			e.gateway, err = serve(e.gw.Handler())
		}
		if err == nil {
			err = trainAll(b, e.client, e.gateway, c)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	if err := trainAll(b, e.client, e.replica, c); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupTimed runs a round of timed set-ups and returns the last
// environment, still up.
func setupTimed(b *bench) (*env, error) {
	var e *env
	reset := func() {
		if e != nil {
			e.close()
			e = nil
		}
	}
	err := b.setupRound(reset, func() (err error) {
		e, err = setupServe(b, newRecorder(false))
		return err
	})
	if err != nil {
		reset()
		return nil, err
	}
	return e, nil
}

// sigStart and sigEnd delimit the verdict fields that depend only on the
// scored route set ("p_max" through "n"), whatever the profile's adaptive
// state: the load phase checks each answer carries its own request's.
var (
	sigStart = []byte(`"p_max":`)
	sigEnd   = []byte(`,"suspect_link"`)
)

func signature(body []byte) []byte {
	i := bytes.Index(body, sigStart)
	j := bytes.Index(body, sigEnd)
	if i < 0 || j < i {
		return nil
	}
	return append([]byte(nil), body[i:j]...)
}

var decisionMark = []byte(`"verdict":{"decision":"`)

// flagged reports whether a detect answer's decision is other than normal.
func flagged(body []byte) bool {
	i := bytes.Index(body, decisionMark)
	return i >= 0 && !bytes.HasPrefix(body[i+len(decisionMark):], []byte("normal\""))
}

// verdictPass scores the corpus once, in order, with adaptive updates off,
// and keeps each answer's signature. It returns the digest of the lone
// replica's answers, which must equal the one digests.json records; on
// serve-fleet every answer through the gateway must also equal the lone
// replica's byte for byte.
func verdictPass(b *bench, e *env) string {
	var failed int64
	var acc tally
	h := sha256.New()
	defer func() {
		if acc.atk > 0 && acc.nrm > 0 {
			b.report("verdict_detect_rate", float64(acc.tp)/float64(acc.atk), "ratio")
			b.report("verdict_false_alarm_rate", float64(acc.fp)/float64(acc.nrm), "ratio")
		}
	}()
	for i := range e.corpus.items {
		it := &e.corpus.items[i]
		status, body, err := post(e.client, e.replica+"/v1/detect", it.frozen)
		if err != nil || status != http.StatusOK {
			failed++
			b.fail("verdict pass item %d: status %d: %v", i, status, err)
			continue
		}
		h.Write(body)
		h.Write([]byte{'\n'})
		it.sig = signature(body)
		if it.sig == nil {
			failed++
			b.fail("verdict pass item %d: no verdict in %q", i, body)
			continue
		}
		acc.verdict(it, body) // the signature came from this body
		if e.gateway == "" {
			continue
		}
		gstatus, gbody, err := post(e.client, e.gateway+"/v1/detect", it.frozen)
		if err != nil || gstatus != status || !bytes.Equal(gbody, body) {
			failed++
			b.fail("verdict pass item %d: gateway answered %d %q, lone replica %d %q (%v)", i, gstatus, gbody, status, body, err)
		}
	}
	n := int64(len(e.corpus.items))
	if e.gateway != "" {
		n *= 2
	}
	b.count("verdict", n, failed)
	return hex.EncodeToString(h.Sum(nil))
}

// checkedVerdictPass runs the verdict pass and checks its digest.
func checkedVerdictPass(b *bench, e *env) error {
	return b.checkDigest(verdictPass(b, e))
}

// serveDigest sets the workload up once and returns its verdict pass's
// digest.
func serveDigest(b *bench) (string, error) {
	e, err := setupServe(b, newRecorder(false))
	if err != nil {
		return "", err
	}
	defer e.close()
	d := verdictPass(b, e)
	if len(b.problems) > 0 {
		return "", fmt.Errorf("verdict pass: %s", b.problems[0])
	}
	return d, nil
}

// tally accumulates one load phase's outcomes.
type tally struct {
	mu                  sync.Mutex
	lat, trainLat, late []float64 // ms
	done                []float64 // completion times, s since load start
	attempted, failed   int64
	tp, fp, atk, nrm    int64
	scored              int64
}

// verdict checks one detect answer against its request and tallies it; it
// reports whether the answer was the request's own.
func (t *tally) verdict(it *item, body []byte) bool {
	if !bytes.Contains(body, it.sig) {
		t.failed++
		return false
	}
	t.scored++
	pos := flagged(body)
	if it.attack {
		t.atk++
		if pos {
			t.tp++
		}
	} else {
		t.nrm++
		if pos {
			t.fp++
		}
	}
	return true
}

// bins splits the latency samples by the whole second of the load phase
// they completed in, dropping completions after span.
func bins(lat, done []float64, span time.Duration) [][]float64 {
	out := make([][]float64, max(int(span/time.Second), 1))
	for i, d := range done {
		if k := int(d); k >= 0 && k < len(out) {
			out[k] = append(out[k], lat[i])
		}
	}
	return out
}

// finishLoad sets the end-to-end metrics of a serving load phase other than
// latency.
func finishLoad(b *bench, t *tally, span time.Duration, allocB uint64, open bool) {
	b.count("load", t.attempted, t.failed)
	windows := bins(t.lat, t.done, span)
	counts := make([]float64, len(windows))
	for i, w := range windows {
		counts[i] = float64(len(w))
	}
	// A closed loop's rate is the median over the one-second bins. An open
	// loop completes exactly its schedule in every bin while it keeps up,
	// so its rate is taken over the whole phase, to the last completion:
	// falling behind the schedule shows as a lower rate. It is a keep-up
	// check only: it equals the offered load until capacity falls below it.
	rate := median(counts)
	if open {
		rate = float64(t.scored) / slices.Max(t.done)
	}
	b.set("ops_per_s", rate, "1/s")
	b.report("sets_per_s", rate, "1/s")
	b.set("alloc_b_per_op", float64(allocB)/float64(max(t.scored, 1)), "B")
	if t.atk > 0 {
		b.report("detect_rate", float64(t.tp)/float64(t.atk), "ratio")
	}
	if t.nrm > 0 {
		b.report("false_alarm_rate", float64(t.fp)/float64(t.nrm), "ratio")
	}
	b.note("op = one scored route set; %d scored, %d attacked and %d normal", t.scored, t.atk, t.nrm)
}

// runServe runs a round of timed set-ups, the verdict pass and measure on
// the last environment, and then a second round of set-ups.
func runServe(b *bench, measure func(*env)) error {
	e, err := setupTimed(b)
	if err != nil {
		return err
	}
	err = checkedVerdictPass(b, e)
	if err == nil {
		measure(e)
	}
	e.close()
	if err != nil {
		return err
	}
	if e, err = setupTimed(b); err != nil {
		return err
	}
	e.close()
	return nil
}

func runStream(b *bench) error { return runServe(b, func(e *env) { streamMeasure(b, e) }) }

// streamMeasure measures throughput with full windows for three quarters
// of the time and per-line latency in lockstep for the rest.
func streamMeasure(b *bench, e *env) {
	loaded := b.seconds * 3 / 4
	t, allocB := streamLoad(e, loaded)
	finishLoad(b, t, loaded, allocB, false)
	b.report("window_p50_ms", percentile(t.lat, 0.5).Value, "ms")
	lock := streamLockstep(e, b.seconds-loaded)
	b.count("load", lock.attempted, lock.failed)
	b.setLatency("detect", bins(lock.lat, lock.done, b.seconds-loaded))
	b.note("detect latency: one line in flight on one stream; window_p50_ms is the latency with full windows, " +
		"which is lines in flight over throughput")
}

// streamLockstep sends corpus lines on one stream connection one at a
// time, each only after the previous one is answered, until d has elapsed.
// A sample is one line's decode, lookup, scoring and encode plus the
// loopback hop, with no queueing behind other lines. With full windows the
// latency is lines in flight over throughput (Little's law) and says
// nothing that ops_per_s does not.
func streamLockstep(e *env, d time.Duration) *tally {
	items := e.corpus.items
	framed := make([][]byte, len(items))
	for i, it := range items {
		framed[i] = append(append([]byte(nil), it.body...), '\n')
	}
	t := &tally{}
	pr, pw := io.Pipe()
	lines := make(chan int)
	go func() {
		defer pw.Close()
		for idx := range lines {
			if _, err := pw.Write(framed[idx]); err != nil {
				pw.CloseWithError(err)
				for range lines {
				}
				return
			}
		}
	}()
	closed := false
	stop := func() {
		if !closed {
			close(lines)
			closed = true
		}
	}
	defer func() {
		stop()
		pr.CloseWithError(io.ErrClosedPipe)
	}()

	idx, sentAt := 0, time.Now()
	lines <- idx
	t.attempted++
	req, err := http.NewRequest(http.MethodPost, e.replica+"/v1/detect/stream", pr)
	if err != nil {
		t.failed++
		return t
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := e.client.Do(req)
	if err != nil {
		t.failed++
		return t
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.failed++
		return t
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	start := sentAt
	for !closed {
		if !sc.Scan() {
			t.failed++ // the line in flight went unanswered
			return t
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		now := time.Now()
		if t.verdict(&items[idx], line) {
			t.lat = append(t.lat, ms(now.Sub(sentAt)))
			t.done = append(t.done, now.Sub(start).Seconds())
		}
		if now.Sub(start) >= d {
			stop()
			break
		}
		idx = (idx + 1) % len(items)
		sentAt = time.Now()
		lines <- idx
		t.attempted++
	}
	// The request body is closed: the stream must end with no further line.
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			t.failed++
		}
	}
	if sc.Err() != nil {
		t.failed++
	}
	return t
}

// streamLoad drives the corpus closed-loop through /v1/detect/stream on
// streamConns connections, each keeping up to streamWindow lines in flight.
func streamLoad(e *env, d time.Duration) (*tally, uint64) {
	t := &tally{}
	var next atomic.Int64
	a0 := allocBytes()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < streamConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streamConn(e, t, &next, start, deadline)
		}()
	}
	wg.Wait()
	return t, allocBytes() - a0
}

// sent is one request line awaiting its answer.
type sent struct {
	at  time.Time
	idx int
}

// streamConn runs one stream connection: a writer goroutine claims corpus
// lines and writes them, recording each in the window; this goroutine reads
// the answers, which must come back one per line and in order.
func streamConn(e *env, t *tally, next *atomic.Int64, start, deadline time.Time) {
	items := e.corpus.items
	pr, pw := io.Pipe()
	window := make(chan sent, streamWindow)
	var claimed atomic.Int64
	go func() {
		defer close(window)
		bw := bufio.NewWriterSize(pw, 16<<10)
		var werr error
		for werr == nil && time.Now().Before(deadline) {
			idx := int(next.Add(1)-1) % len(items)
			if len(window) == cap(window) {
				if werr = bw.Flush(); werr != nil {
					break
				}
			}
			window <- sent{time.Now(), idx}
			claimed.Add(1)
			if _, werr = bw.Write(items[idx].body); werr == nil {
				werr = bw.WriteByte('\n')
			}
		}
		if werr == nil {
			werr = bw.Flush()
		}
		pw.CloseWithError(werr)
	}()

	var local tally
	defer func() {
		pr.CloseWithError(io.ErrClosedPipe) // unblocks the writer if it is still writing
		for range window {
			local.failed++ // never answered
		}
		local.attempted = claimed.Load()
		t.mu.Lock()
		t.attempted += local.attempted
		t.failed += local.failed
		t.lat = append(t.lat, local.lat...)
		t.done = append(t.done, local.done...)
		t.scored += local.scored
		t.tp, t.fp, t.atk, t.nrm = t.tp+local.tp, t.fp+local.fp, t.atk+local.atk, t.nrm+local.nrm
		t.mu.Unlock()
	}()

	req, err := http.NewRequest(http.MethodPost, e.replica+"/v1/detect/stream", pr)
	if err != nil {
		return // its lines count as unanswered
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := e.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		s, open := <-window
		if !open {
			local.failed++ // an answer to no request
			break
		}
		now := time.Now()
		if local.verdict(&items[s.idx], line) {
			local.lat = append(local.lat, ms(now.Sub(s.at)))
			local.done = append(local.done, now.Sub(start).Seconds())
		}
	}
	if sc.Err() != nil {
		local.failed++
	}
}

func runFleet(b *bench) error { return runServe(b, func(e *env) { fleetMeasure(b, e) }) }

func fleetMeasure(b *bench, e *env) {
	t, allocB := fleetLoad(e, b.seconds)
	finishLoad(b, t, b.seconds, allocB, true)
	b.setLatency("detect", bins(t.lat, t.done, b.seconds))
	trainP50 := percentile(append([]float64(nil), t.trainLat...), 0.5)
	b.report("train_p50_ms", trainP50.Value, "ms")
	if q, ok := tail(t.trainLat); ok {
		b.report(fmt.Sprintf("train_p%g_ms", q.Q*100), q.Value, "ms")
		b.note("train latency: p50 and p%g over n=%d samples", q.Q*100, q.N)
	}
	late, _ := tail(t.late)
	b.report(fmt.Sprintf("loadgen.late_p%g_ms", late.Q*100), late.Value, "ms")
}

// fleetLoad drives the gateway open-loop. Every trainEvery-th request is a
// train write to one of the profiles, the rest detect requests.
func fleetLoad(e *env, d time.Duration) (*tally, uint64) {
	c := e.corpus
	t := &tally{}
	a0 := allocBytes()
	samples := openLoop(fleetConns, time.Duration(float64(time.Second)/fleetRate), d, func(k int64) bool {
		if k%trainEvery == trainEvery-1 {
			p := int(k/trainEvery) % len(c.names)
			status, _, err := post(e.client, e.gateway+"/v1/profiles/"+c.names[p]+"/train", c.trainBodies[p])
			return err == nil && status == http.StatusOK
		}
		it := &c.items[int(k)%len(c.items)]
		status, body, err := post(e.client, e.gateway+"/v1/detect", it.body)
		if err != nil || status != http.StatusOK {
			return false
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.verdict(it, body)
	})
	t.failed = 0 // recounted from the samples below
	for _, s := range samples {
		t.attempted++
		if !s.ok {
			t.failed++
			continue
		}
		t.late = append(t.late, ms(s.late))
		if s.k%trainEvery == trainEvery-1 {
			t.trainLat = append(t.trainLat, ms(s.lat))
		} else {
			t.lat = append(t.lat, ms(s.lat))
			t.done = append(t.done, s.done.Seconds())
		}
	}
	return t, allocBytes() - a0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sample is the timing of one open-loop request, relative to the start.
type sample struct {
	k               int64
	due, sent, done time.Duration
	late, lat       time.Duration // sent-due and done-due
	ok              bool
}

// openLoop issues requests k = 0, 1, 2, ... due at k*period after the start,
// for as long as the due time is within d, on conns sender goroutines (one
// connection each): a sender takes the next request, waits for its due
// time if that is still ahead, and performs it with do. Latency runs from
// the due time whatever happened to earlier requests, so a stall also
// delays, and is charged to, the requests queued behind it.
func openLoop(conns int, period, d time.Duration, do func(k int64) bool) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				k := next.Add(1) - 1
				due := time.Duration(k) * period
				if due >= d {
					break
				}
				// A raw nanosleep, not time.Sleep: the runtime's timers wake
				// idle threads with millisecond resolution, which would make
				// the generator, not the system, the largest source of
				// lateness. A signal can cut the sleep short, hence the loop.
				for wait := due - time.Since(start); wait > 0; wait = due - time.Since(start) {
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
				}
				s := sample{k: k, due: due, sent: time.Since(start)}
				s.ok = do(k)
				s.done = time.Since(start)
				s.late, s.lat = s.sent-due, s.done-due
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}
