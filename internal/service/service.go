// Package service is the SAM detection service: the paper's local-detection
// module turned into a long-running HTTP/JSON scoring layer. It holds named
// normal-condition profiles in a sharded store, scores incoming route sets
// against them (one at a time or in batches over a bounded worker pool with
// queue-depth backpressure), keeps each profile adaptive via the paper's
// low-pass update, and exposes Prometheus-style metrics.
//
// Endpoints:
//
//	POST   /v1/analyze               SAM statistics of a route set (stateless)
//	POST   /v1/detect                score one route set against a profile
//	POST   /v1/detect/batch          score many route sets on the worker pool
//	POST   /v1/detect/stream         NDJSON pipeline: detect requests in, verdicts out
//	POST   /v1/profiles/{name}/train feed normal route sets into the trainer
//	POST   /v1/train/batch           deterministic server-side training sweep
//	POST   /v1/verify                probe a suspect pair (step 2), optionally isolate (step 3)
//	GET    /v1/isolation             list condemned pairs
//	DELETE /v1/isolation/{a}/{b}     lift a condemned pair
//	GET    /v1/profiles              list stored profiles
//	GET    /v1/profiles/{name}       export a profile snapshot
//	DELETE /v1/profiles/{name}       evict a profile from the store
//	GET    /debug/decisions          recent decision records (explainability)
//	GET    /metrics                  Prometheus text metrics
//	GET    /healthz                  liveness probe
//
// Telemetry lives on an obs.Registry (private by default, injectable for
// embedding) and every scored route set can be captured as a structured
// obs.Decision in a lock-free ring; capture is toggled by one atomic and
// costs nothing when off.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"samnet/internal/obs"
	"samnet/internal/sam"
	"samnet/internal/verify"
)

// Config tunes the service. The zero value selects sensible defaults.
type Config struct {
	// Shards is the profile-store shard count (default 16).
	Shards int
	// Workers bounds batch-detection parallelism (default NumCPU).
	Workers int
	// QueueDepth caps tasks admitted to the worker pool, queued or running;
	// a batch that does not fit is answered 429 (default 4*Workers, min 64).
	QueueDepth int
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchItems caps items per /v1/detect/batch request (default 256).
	MaxBatchItems int
	// Detector configures detectors built for trained profiles; zero fields
	// take the sam defaults.
	Detector sam.DetectorConfig
	// PMFBins is the trainer binning (0 selects sam.DefaultPMFBins).
	PMFBins int
	// Registry receives the service's instruments. Nil creates a private
	// registry; inject one to merge the service's series into a larger
	// exposition (each Service must then be the registry's only samserve_*
	// producer).
	Registry *obs.Registry
	// DecisionBuffer sizes the ring of retained decision records behind
	// GET /debug/decisions (default 256; negative disables capture, making
	// the detect path record-free).
	DecisionBuffer int
	// Tracer captures per-request spans behind GET /debug/traces and
	// propagates trace context (W3C traceparent) in and out. Nil leaves
	// tracing off entirely: the request path takes one atomic-load branch
	// and allocates nothing extra, and response bodies are byte-identical
	// either way (spans are observe-only, like decision records).
	Tracer *obs.Tracer
	// Verify configures the probe engine behind POST /v1/verify; zero fields
	// take the verify defaults (per-request knobs override).
	Verify verify.Config
	// ProfileTTL evicts profiles idle (no store lookup) for longer than this
	// duration; 0 disables idle eviction.
	ProfileTTL time.Duration
	// MaxProfiles caps store residency: when a training, load or restore
	// pushes the count above the cap, the least-recently-accessed profiles
	// are evicted until it fits. 0 means unlimited.
	MaxProfiles int
	// Logger receives service warnings (response bodies that failed after
	// the status line was committed). Nil selects slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
		if c.QueueDepth < 64 {
			c.QueueDepth = 64
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.DecisionBuffer == 0 {
		c.DecisionBuffer = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Service is a SAM detection service instance. It is safe for concurrent
// use; create one with New and serve Handler.
type Service struct {
	cfg     Config
	store   *store
	pool    *pool
	metrics *metrics
	mux     *http.ServeMux
	logger  *slog.Logger
	// detCfg is the effective detector configuration (defaults resolved),
	// echoed into decision records as the thresholds verdicts were judged by.
	detCfg sam.DetectorConfig
	// decisions retains recent decision records; nil when capture is
	// disabled (DecisionBuffer < 0).
	decisions *obs.DecisionRing
	// iso is the service's isolation list: pairs condemned by /v1/verify
	// with isolate=true, readable via /v1/isolation.
	iso *verify.IsolationSet
	// trainBusy is the batch-training single-flight gate: one server-side
	// sweep at a time, later requests answer 429 instead of queueing sweeps.
	trainBusy atomic.Bool
	// lastSnapshot is the wall clock (unix nanos) of the last successful
	// SaveSnapshot, 0 when none has completed; /healthz reports its age so a
	// gateway can spot replicas whose durability loop has stalled.
	lastSnapshot atomic.Int64
	// sweepStop/sweepDone manage the eviction sweeper goroutine, started
	// only when a TTL or residency cap is configured.
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// New builds a service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		store:   newStore(cfg.Shards, cfg.Detector, cfg.PMFBins),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		metrics: newMetrics(cfg.Registry, cfg.Tracer),
		logger:  cfg.Logger,
		detCfg:  cfg.Detector.WithDefaults(),
		iso:     verify.NewIsolationSet(),
	}
	if cfg.DecisionBuffer > 0 {
		s.decisions = obs.NewDecisionRing(cfg.DecisionBuffer)
	}
	start := time.Now()
	cfg.Registry.GaugeFunc("samserve_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(start).Seconds() })
	cfg.Registry.GaugeFunc("samserve_queue_depth",
		"Tasks admitted to the worker pool (queued or running).",
		func() float64 { return float64(s.pool.depth()) })
	cfg.Registry.GaugeFunc("samserve_profiles",
		"Profiles resident in the store.",
		func() float64 { return float64(s.store.count()) })
	cfg.Registry.GaugeFunc("samserve_decisions_recorded",
		"Decision records accepted by the ring since start.",
		func() float64 { return float64(s.decisions.Recorded()) })
	cfg.Registry.GaugeFunc("samserve_isolated_pairs",
		"Condemned pairs currently on the isolation list.",
		func() float64 { return float64(s.iso.Len()) })
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.hot("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/detect", s.hot("detect", s.handleDetect))
	mux.HandleFunc("POST /v1/detect/batch", s.hot("detect_batch", s.handleDetectBatch))
	mux.HandleFunc("POST /v1/detect/stream", s.hot("detect_stream", s.handleDetectStream))
	mux.HandleFunc("POST /v1/profiles/{name}/train", s.wrap("train", s.handleTrain))
	mux.HandleFunc("POST /v1/train/batch", s.wrap("train_batch", s.handleTrainBatch))
	mux.HandleFunc("POST /v1/verify", s.wrap("verify", s.handleVerify))
	mux.HandleFunc("GET /v1/isolation", s.wrap("isolation", s.handleIsolation))
	mux.HandleFunc("DELETE /v1/isolation/{a}/{b}", s.wrap("isolation_lift", s.handleIsolationLift))
	mux.HandleFunc("GET /v1/profiles", s.wrap("profiles", s.handleListProfiles))
	mux.HandleFunc("GET /v1/profiles/{name}", s.wrap("profile_get", s.handleGetProfile))
	mux.HandleFunc("PUT /v1/profiles/{name}", s.wrap("profile_put", s.handlePutProfile))
	mux.HandleFunc("DELETE /v1/profiles/{name}", s.wrap("profile_delete", s.handleDeleteProfile))
	mux.HandleFunc("GET /debug/decisions", s.handleDecisions)
	mux.Handle("GET /debug/traces", cfg.Tracer.Handler())
	mux.Handle("GET /metrics", cfg.Registry.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	if cfg.ProfileTTL > 0 || cfg.MaxProfiles > 0 {
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop()
	}
	return s
}

// sweepInterval picks how often the eviction sweeper wakes: a quarter of the
// TTL (so an idle profile overstays by at most ~25%), clamped to [1s, 1m];
// with only a residency cap configured the sweep is a 10s backstop behind
// the synchronous enforceCap calls.
func (s *Service) sweepInterval() time.Duration {
	if s.cfg.ProfileTTL <= 0 {
		return 10 * time.Second
	}
	iv := s.cfg.ProfileTTL / 4
	if iv < time.Second {
		iv = time.Second
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

func (s *Service) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.sweepInterval())
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.sweepOnce(time.Now())
		}
	}
}

// sweepOnce runs one eviction pass: expire entries idle past the TTL, then
// enforce the residency cap. It returns the eviction counts for tests.
func (s *Service) sweepOnce(now time.Time) (ttl, lru int) {
	if d := s.cfg.ProfileTTL; d > 0 {
		cutoff := now.Add(-d).UnixNano()
		for _, a := range s.store.accesses() {
			if a.last > cutoff {
				break // accesses is oldest-first; the rest are younger
			}
			if s.store.removeIfIdle(a.name, a.e, cutoff) {
				s.metrics.evictTTL.Inc()
				ttl++
			}
		}
	}
	return ttl, s.enforceCap()
}

// enforceCap evicts least-recently-accessed profiles until residency fits
// under MaxProfiles. It runs synchronously after every operation that can
// grow the store (training, load, restore) and inside the periodic sweep.
func (s *Service) enforceCap() int {
	max := s.cfg.MaxProfiles
	if max <= 0 {
		return 0
	}
	evicted := 0
	over := s.store.count() - max
	if over <= 0 {
		return 0
	}
	for _, a := range s.store.accesses() {
		if over <= 0 {
			break
		}
		// cutoff now: only evict if the entry hasn't been touched since the
		// scan observed it (a concurrent user re-stamps lastAccess).
		if s.store.removeIfIdle(a.name, a.e, a.last) {
			s.metrics.evictLRU.Inc()
			evicted++
			over--
		}
	}
	return evicted
}

// Registry returns the registry holding the service's instruments, for
// mounting on additional listeners (samserve's debug endpoint).
func (s *Service) Registry() *obs.Registry { return s.cfg.Registry }

// Decisions returns the decision record ring (nil when capture is disabled).
func (s *Service) Decisions() *obs.DecisionRing { return s.decisions }

// Tracer returns the request tracer (nil when tracing is off), for mounting
// /debug/traces on additional listeners (samserve's debug endpoint).
func (s *Service) Tracer() *obs.Tracer { return s.cfg.Tracer }

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.mux }

// Close stops the eviction sweeper and the worker pool. Call it only after
// the HTTP server has fully shut down (no handler in flight).
func (s *Service) Close() {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
		s.sweepStop = nil
	}
	s.pool.close()
}

// LoadProfile installs an externally trained profile (e.g. samtrain output)
// under the given name, cloning it so the caller keeps its copy. The install
// is eviction-safe: a concurrent DELETE or sweep cannot silently drop it
// (store.load re-checks residency under the shard lock).
func (s *Service) LoadProfile(name string, p *sam.Profile) error {
	if name == "" {
		return errors.New("service: profile name must not be empty")
	}
	if p == nil || p.PMF == nil {
		return errors.New("service: nil or PMF-less profile")
	}
	s.store.load(name, p)
	s.metrics.loads.Inc()
	s.enforceCap()
	return nil
}

// RestoreProfile installs a snapshot record — profile plus the adaptive
// feature means captured when it was written — under the given name. It is
// LoadProfile for state that must resume, not restart, the low-pass filter.
func (s *Service) RestoreProfile(name string, p *sam.Profile, pmaxMean, phiMean float64) error {
	if name == "" {
		return errors.New("service: profile name must not be empty")
	}
	if p == nil || p.PMF == nil {
		return errors.New("service: nil or PMF-less profile")
	}
	if err := validateSnapshotRecord(ProfileResponse{
		Name: name, PMaxMean: pmaxMean, PhiMean: phiMean, Profile: p,
	}); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.store.restore(name, p, pmaxMean, phiMean)
	s.metrics.loads.Inc()
	s.enforceCap()
	return nil
}

// wrap applies body limiting and metrics instrumentation to a handler.
func (s *Service) wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.metrics.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	})
}

// hot registers a hot-path handler: instrumentation only. These handlers
// read their body through pooled scratch (wireScratch.readBody enforces
// MaxBodyBytes itself), skipping MaxBytesReader's per-request allocation.
func (s *Service) hot(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.metrics.instrument(name, h)
}

// writeJSON ships v through encoding/json — the writer for everything off
// the detect hot path (and for explain responses, whose decision records are
// too rich to hand-encode). Encode errors after the status line are counted
// and logged instead of silently shipping a 200 with truncated JSON.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = ctJSON
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.responseFailed("encode", err)
	}
}

func (s *Service) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// errorf is writeError for handlers holding a scratch: the body is built in
// the pooled buffer with the append encoder.
func (s *Service) errorf(w http.ResponseWriter, sc *wireScratch, status int, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	sc.out = appendErrorResponse(sc.out[:0], msg)
	s.writeBuf(w, status, sc.out)
}

// decodeStatus maps a decoding error to its HTTP status.
func decodeStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBody(r, s.cfg.MaxBodyBytes); err != nil {
		s.errorf(w, sc, decodeStatus(err), "%v", err)
		return
	}
	if err := sc.parseRequest(kindAnalyze); err != nil {
		s.errorf(w, sc, decodeStatus(err), "%v", err)
		return
	}
	sc.materializeRoutes()
	st := sam.Analyze(sc.routes)
	topK := sc.topK
	if topK == 0 {
		topK = 5
	}
	resp := AnalyzeResponse{
		Routes:   st.Routes,
		N:        st.N,
		Distinct: len(st.ByLink),
		PMax:     st.PMax,
		Phi:      st.Phi,
		MaxLink:  linkJSON(st.MaxLink),
		Suspect:  linkJSON(st.Suspect),
	}
	if topK > 0 {
		for _, lc := range st.TopLinks(topK) {
			resp.Top = append(resp.Top, LinkCountJSON{Link: linkJSON(lc.Link), Count: lc.Count, P: lc.P})
		}
	}
	sc.out = appendAnalyzeResponse(sc.out[:0], resp)
	s.writeBuf(w, http.StatusOK, sc.out)
}

// scoreOrError maps store/entry errors onto HTTP statuses shared by the
// detect endpoints: 404 unknown profile, 409 not yet trained.
func scoreStatus(err error) int {
	switch {
	case errors.Is(err, errUnknownProfile):
		return http.StatusNotFound
	case errors.Is(err, errUntrained):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleDetect(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBody(r, s.cfg.MaxBodyBytes); err != nil {
		s.errorf(w, sc, decodeStatus(err), "%v", err)
		return
	}
	if err := sc.parseRequest(kindDetect); err != nil {
		s.errorf(w, sc, decodeStatus(err), "%v", err)
		return
	}
	sc.trace = requestTraceHex(r)
	status, rec, v := s.detectScratch(sc)
	if rec != nil {
		s.writeJSON(w, http.StatusOK, DetectResponse{
			Profile: string(sc.profile), Verdict: verdictJSON(v), Explain: rec,
		})
		return
	}
	s.writeBuf(w, status, sc.out)
}

// detectScratch runs one parsed detect request to completion: profile
// lookup, scoring, observation, and response encoding into sc.out. It is
// shared by /v1/detect and each /v1/detect/stream line. The returned status
// goes with the sc.out body — except when rec is non-nil (explain requested),
// where the caller must build the cold-path DetectResponse with the record
// through encoding/json instead.
func (s *Service) detectScratch(sc *wireScratch) (status int, rec *obs.Decision, v sam.Verdict) {
	if len(sc.profile) == 0 {
		sc.out = appendErrorResponse(sc.out[:0], "missing profile name")
		return http.StatusBadRequest, nil, v
	}
	sc.materializeRoutes()
	e, err := s.store.getBytes(sc.profile)
	if err != nil {
		sc.out = appendErrorResponse(sc.out[:0], err.Error())
		return scoreStatus(err), nil, v
	}
	// e.name is the store's interned copy of the profile name: verdicts are
	// observed under it so no per-request string materializes.
	v, err = e.score(sam.Analyze(sc.routes), sc.requestUpdate())
	if err != nil {
		sc.out = appendErrorResponse(sc.out[:0], fmt.Sprintf("profile %q: %v", e.name, err))
		return scoreStatus(err), nil, v
	}
	if rec = s.observe(e.name, v, sc.explain, sc.trace); rec != nil {
		return http.StatusOK, rec, v
	}
	sc.out = appendDetectResponse(sc.out[:0], sc.profile, verdictJSON(v))
	return http.StatusOK, nil, v
}

// observe feeds one scored verdict into the instruments and, when capture is
// on, the decision ring; with explain set it also returns the record for the
// response body. Every detect path (single, batch, stream) goes through
// here, so capture/explain semantics cannot drift between them. The
// disabled-capture path is one atomic load and allocation-free (pinned by
// TestDetectTelemetryOffZeroAlloc). trace is the request's trace id ("" when
// tracing is off); it is stamped on the ring record only — the explain copy
// returned for the response body is scrubbed, keeping response bytes
// identical with tracing on or off.
func (s *Service) observe(profile string, v sam.Verdict, explain bool, trace string) *obs.Decision {
	s.metrics.observeVerdict(v)
	if !explain && !s.decisions.Enabled() {
		return nil
	}
	rec := sam.NewDecisionRecord(profile, v, s.detCfg)
	rec.TraceID = trace
	s.decisions.Record(rec)
	if explain {
		rec.TraceID = ""
		return &rec
	}
	return nil
}

// requestTraceHex returns the request's 32-digit hex trace id, or "" when no
// span was started (tracing off). The miss path is one context walk: no
// allocation, safe on the detect hot path.
func requestTraceHex(r *http.Request) string {
	if sc, ok := obs.SpanFromContext(r.Context()); ok {
		return sc.TraceHex()
	}
	return ""
}

func (s *Service) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBody(r, s.cfg.MaxBodyBytes); err != nil {
		s.errorf(w, sc, decodeStatus(err), "%v", err)
		return
	}
	if err := sc.parseRequest(kindBatch); err != nil {
		s.errorf(w, sc, decodeStatus(err), "%v", err)
		return
	}
	sc.trace = requestTraceHex(r)
	if len(sc.profile) == 0 {
		s.errorf(w, sc, http.StatusBadRequest, "missing profile name")
		return
	}
	if len(sc.setEnds) > s.cfg.MaxBatchItems {
		s.errorf(w, sc, http.StatusBadRequest, "batch has %d items, limit %d", len(sc.setEnds), s.cfg.MaxBatchItems)
		return
	}
	sc.materializeRoutes()
	e, err := s.store.getBytes(sc.profile)
	if err != nil {
		s.errorf(w, sc, scoreStatus(err), "%v", err)
		return
	}
	update := sc.requestUpdate()

	n := len(sc.sets)
	sc.stats = growSlice(sc.stats, n)
	sc.verdicts = growSlice(sc.verdicts, n)
	sc.itemErrs = growSlice(sc.itemErrs, n)
	sc.tasks = sc.tasks[:0]
	for i := range sc.sets {
		i, set := i, sc.sets[i]
		// Analysis is pure and runs fully parallel on the pool.
		sc.tasks = append(sc.tasks, func() { sc.stats[i] = sam.Analyze(set) })
	}
	if !s.pool.tryRun(sc.tasks) {
		w.Header().Set("Retry-After", "1")
		s.errorf(w, sc, http.StatusTooManyRequests,
			"worker pool saturated (%d items would exceed queue depth %d)", n, s.cfg.QueueDepth)
		return
	}
	// The stateful evaluate+update pair runs after the barrier in item
	// order, so the adaptive profile replays the same way on every run and
	// the verdicts do not depend on worker scheduling. Observation waits
	// for finishBatch: metrics and decision records must reflect only
	// verdicts the response actually carries.
	for i := range sc.stats {
		sc.verdicts[i], sc.itemErrs[i] = e.score(sc.stats[i], update)
	}
	status := s.finishBatch(sc, e.name)
	s.writeBuf(w, status, sc.out)
}

// finishBatch turns a scored batch into the wire response after the pool
// barrier. Items that scored are observed (metrics + decision ring) and
// carry their verdict; items that failed carry a parallel error entry and a
// zero verdict slot — completed work is returned, never discarded because a
// sibling item failed (those verdicts already updated the adaptive profile,
// so hiding them would leave the client blind to a half-applied batch).
// Returns 200 when every item scored, 207 (Multi-Status) otherwise.
func (s *Service) finishBatch(sc *wireScratch, profile string) int {
	n := len(sc.verdicts)
	sc.wire = growSlice(sc.wire, n)
	sc.errStrs = growSlice(sc.errStrs, n)
	status := http.StatusOK
	for i, err := range sc.itemErrs {
		if err != nil {
			status = http.StatusMultiStatus
			sc.errStrs[i] = fmt.Sprintf("profile %q: %v", profile, err)
			continue
		}
		s.observe(profile, sc.verdicts[i], false, sc.trace)
		sc.wire[i] = verdictJSON(sc.verdicts[i])
	}
	sc.out = appendBatchDetectResponse(sc.out[:0], sc.profile, sc.wire, sc.errStrs)
	return status
}

func (s *Service) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing profile name")
		return
	}
	var req TrainRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, decodeStatus(err), "%v", err)
		return
	}
	if len(req.RouteSets) == 0 {
		s.writeError(w, http.StatusBadRequest, "route_sets must not be empty")
		return
	}
	sets, err := decodeRouteSets(req.RouteSets)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e := s.store.getOrCreate(name)
	runs, err := e.train(sets)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errProfileBuild) {
			// Observations were recorded but no usable profile came out of
			// them: the training data is unprocessable, not a server fault.
			status = http.StatusUnprocessableEntity
		}
		s.writeError(w, status, "profile %q: %v", name, err)
		return
	}
	s.metrics.trainings.Inc()
	s.enforceCap()
	s.writeJSON(w, http.StatusOK, TrainResponse{Profile: name, Runs: runs, Trained: runs > 0})
}

func (s *Service) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	names := s.store.names()
	infos := make([]ProfileInfo, 0, len(names))
	for _, name := range names {
		e, err := s.store.get(name)
		if err != nil {
			continue // deleted concurrently; nothing to report
		}
		_, _, _, runs, snapErr := e.snapshot()
		infos = append(infos, ProfileInfo{Name: name, Runs: runs, Trained: snapErr == nil})
	}
	s.writeJSON(w, http.StatusOK, infos)
}

func (s *Service) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, err := s.store.get(name)
	if err != nil {
		s.writeError(w, scoreStatus(err), "%v", err)
		return
	}
	p, pmaxMean, phiMean, runs, err := e.snapshot()
	if err != nil {
		s.writeError(w, scoreStatus(err), "profile %q: %v", name, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ProfileResponse{
		Name: name, Runs: runs, PMaxMean: pmaxMean, PhiMean: phiMean, Profile: p,
	})
}

// handlePutProfile installs a snapshot record under the path's name: the body
// is a ProfileResponse — exactly what GET /v1/profiles/{name} exports — so a
// profile travels between replicas without re-training, adaptive means
// included. A record naming a different profile than the path is refused
// rather than silently renamed.
func (s *Service) handlePutProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var rec ProfileResponse
	if err := decodeJSON(r, &rec); err != nil {
		s.writeError(w, decodeStatus(err), "%v", err)
		return
	}
	if rec.Name != "" && rec.Name != name {
		s.writeError(w, http.StatusBadRequest,
			"record names profile %q but the path names %q", rec.Name, name)
		return
	}
	if err := s.RestoreProfile(name, rec.Profile, rec.PMaxMean, rec.PhiMean); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, PutProfileResponse{Profile: name, Runs: rec.Runs, Restored: true})
}

func (s *Service) handleDeleteProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.remove(name) {
		s.writeError(w, http.StatusNotFound, "%v: %q", errUnknownProfile, name)
		return
	}
	s.metrics.evictDelete.Inc()
	s.writeJSON(w, http.StatusOK, DeleteProfileResponse{Profile: name, Deleted: true})
}

func (s *Service) handleDecisions(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, DecisionsResponse{
		Enabled:   s.decisions.Enabled(),
		Capacity:  s.decisions.Cap(),
		Recorded:  s.decisions.Recorded(),
		Decisions: s.decisions.Snapshot(),
	})
}

// Healthz reports the readiness signals /healthz serves: resident profile
// count, worker-pool queue depth, and the age of the last durable snapshot
// (-1 when none has been written).
func (s *Service) Healthz() HealthzResponse {
	age := -1.0
	if at := s.lastSnapshot.Load(); at > 0 {
		age = time.Since(time.Unix(0, at)).Seconds()
	}
	return HealthzResponse{
		Status:       "ok",
		Profiles:     s.store.count(),
		QueueDepth:   int(s.pool.depth()),
		SnapshotAgeS: age,
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Healthz())
}
