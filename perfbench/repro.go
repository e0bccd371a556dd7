package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"samnet/internal/attack"
	"samnet/internal/experiment"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/trace"
	"samnet/internal/verify"
)

// reproSpec is one reproduction workload: the registry experiments it runs
// and the run count per condition it runs them at.
type reproSpec struct {
	ids  []string
	runs int
}

// reproSpecs split the registry by what dominates its cost. The grid
// experiments spend their time in route discovery on the simulator (an
// engine or flooding change shows there, a topology change does not); the
// random-topology ones spend it drawing and freezing random placements.
var reproSpecs = map[string]reproSpec{
	"repro-grid": {runs: 200, ids: []string{
		"table1", "table2", "fig5", "fig6", "fig7", "fig8",
		"fig11", "fig12", "fig13", "fig14", "fig15", "rocmatrix", "verifyloop",
	}},
	"repro-random": {runs: 10, ids: []string{"fig9", "fig10", "detection", "mobility"}},
}

func reproDefs(workload string) ([]experiment.Definition, error) {
	var defs []experiment.Definition
	for _, id := range reproSpecs[workload].ids {
		d, err := experiment.ByID(id)
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// artifactDigest hashes an artifact's tables as samrepro prints them.
func artifactDigest(a *trace.Artifact) string {
	h := sha256.New()
	for _, t := range a.Tables {
		h.Write([]byte(t.Markdown()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passDigest folds the per-experiment digests of one pass, in order.
func passDigest(ids []string, digests map[string]string) string {
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s %s\n", id, digests[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDef runs one experiment. Some inputs make the program panic (see
// README.md, "Known defect"); that is reported as a failed operation, not a
// crash of the benchmark.
func runDef(d experiment.Definition, cfg experiment.Config) (digest string, err error) {
	defer func() {
		if r := recover(); r != nil {
			digest, err = "panic", fmt.Errorf("experiment %s, seed %d: %v", d.ID, cfg.Seed, r)
		}
	}()
	return artifactDigest(d.Run(cfg)), nil
}

// reproConfig is the experiment input generated from the workload seed.
func reproConfig(seed uint64, runs int, pr runner.Progress) experiment.Config {
	return experiment.Config{Runs: runs, Seed: seed, Workers: maxProcs, Progress: pr}
}

// reproSetup runs every experiment once at ten runs per condition, building
// the topologies they draw, so code, pools and caches are warm before
// timing.
func reproSetup(b *bench, defs []experiment.Definition) {
	cfg := reproConfig(b.inputs, 10, nil)
	for _, d := range defs {
		_, err := runDef(d, cfg)
		b.count("setup", 1, 0)
		if err != nil {
			b.count("setup", 0, 1)
			b.fail("setup: %v", err)
		}
	}
}

// reproLoad is what the registry passes of one run measured.
type reproLoad struct {
	passRates []float64            // runs per second of each pass
	runs      int64                // runs completed over all passes
	allocB    uint64               // bytes allocated over all passes
	lat       [][]float64          // per-run latency (ms) of each pass
	busy      float64              // runner busy ratio: task time over wall × workers
	expTimes  map[string][]float64 // per experiment, wall seconds per pass
}

// reproPasses runs whole passes over the workload's experiments until d has
// elapsed (at least one pass), checking every artifact against the first
// pass's and the first pass against the recorded digest.
func reproPasses(b *bench, defs []experiment.Definition, d time.Duration) (*reproLoad, error) {
	spec := reproSpecs[b.workload]
	clock := newRunClock()
	cfg := reproConfig(b.inputs, spec.runs, clock)
	out := &reproLoad{expTimes: map[string][]float64{}}
	first := map[string]string{}
	var attempted, failed int64

	a0 := allocBytes()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		p0, r0 := time.Now(), clock.done.Load()
		for _, def := range defs {
			t0 := time.Now()
			dg, err := runDef(def, cfg)
			out.expTimes[def.ID] = append(out.expTimes[def.ID], time.Since(t0).Seconds())
			attempted++
			if pass == 0 {
				first[def.ID] = dg
			}
			switch {
			case err != nil:
				failed++
				b.fail("pass %d: %v", pass, err)
			case dg != first[def.ID]:
				failed++
				b.fail("%s pass %d: artifact digest %s differs from the first pass's %s", def.ID, pass, dg, first[def.ID])
			}
		}
		out.passRates = append(out.passRates, float64(clock.done.Load()-r0)/time.Since(p0).Seconds())
		lat, busy := clock.take()
		out.lat = append(out.lat, lat)
		out.busy += busy.Seconds()
	}
	wall := time.Since(start)
	out.allocB = allocBytes() - a0
	out.runs = clock.done.Load()
	out.busy /= wall.Seconds() * maxProcs
	b.count("load", attempted, failed)

	return out, b.checkDigest(passDigest(spec.ids, first))
}

// reproDigest runs every experiment of the workload once and returns the
// digest of the pass. A panic is recorded as its experiment's digest.
func reproDigest(b *bench) (string, error) {
	defs, err := reproDefs(b.workload)
	if err != nil {
		return "", err
	}
	spec := reproSpecs[b.workload]
	cfg := reproConfig(b.inputs, spec.runs, nil)
	digests := map[string]string{}
	for _, d := range defs {
		digests[d.ID], _ = runDef(d, cfg)
	}
	return passDigest(spec.ids, digests), nil
}

func runRepro(b *bench) error {
	defs, err := reproDefs(b.workload)
	if err != nil {
		return err
	}
	setup := func() error { reproSetup(b, defs); return nil }
	if err := b.setupRound(nil, setup); err != nil {
		return err
	}
	load, err := reproPasses(b, defs, b.seconds)
	if err != nil {
		return err
	}
	if err := b.setupRound(nil, setup); err != nil {
		return err
	}
	b.set("ops_per_s", median(load.passRates), "1/s")
	b.report("runs_per_s", median(load.passRates), "1/s")
	b.set("alloc_b_per_op", float64(load.allocB)/float64(max(load.runs, 1)), "B")
	b.setLatency("run", load.lat)
	b.report("runner.busy_ratio", load.busy, "ratio")
	for id, ts := range load.expTimes {
		b.report("experiment."+id+"_s", median(ts), "s")
	}
	b.note("op = one simulation run (runner task) counted through experiment.Config.Progress; %d runs over %d passes",
		load.runs, len(load.passRates))
	return nil
}

// reproTracer wraps the public entry points of one traced pass in spans and
// counts discovery work.
type reproTracer struct {
	rec                             *recorder
	discoveries, events, tx, routes atomic.Int64
	probes, condemned               atomic.Int64
	mu                              sync.Mutex
	times                           map[*routing.Route][]sim.Time
}

// tracedProtocol times Protocol.Discover (route discovery, including the
// simulator engine run it drives) as a routing span.
type tracedProtocol struct {
	inner  routing.Protocol
	t      *reproTracer
	parent int64
	name   string
}

func (p *tracedProtocol) Name() string { return p.inner.Name() }

func (p *tracedProtocol) Discover(net *sim.Network, src, dst topology.NodeID) *routing.Discovery {
	before := net.Processed()
	sp := p.t.rec.begin(p.name, p.parent)
	d := p.inner.Discover(net, src, dst)
	p.t.rec.end(sp)
	p.t.discoveries.Add(1)
	p.t.events.Add(int64(net.Processed() - before))
	p.t.tx.Add(d.TxTotal)
	p.t.routes.Add(int64(len(d.Routes)))
	if len(d.Routes) > 0 {
		p.t.mu.Lock()
		p.t.times[&d.Routes[0]] = d.Times
		p.t.mu.Unlock()
	}
	return d
}

// family is one topology and protocol of the traced driver, run under
// normal and attacked conditions.
type family struct {
	topo, proto string
	build       func(experiment.Config, int) *topology.Network
	random      bool
}

// topoSpan names the span of building the family's topology.
func (f family) topoSpan() string {
	if f.random {
		return "topology.random"
	}
	return "topology.grid"
}

func reproFamilies(workload string) []family {
	grid := func(k int) func(experiment.Config, int) *topology.Network {
		return func(experiment.Config, int) *topology.Network { return topology.Cluster(k, 2) }
	}
	uniform := func(c, r int) func(experiment.Config, int) *topology.Network {
		return func(experiment.Config, int) *topology.Network { return topology.Uniform(c, r, 1, 2) }
	}
	if workload == "repro-random" {
		random := func(cfg experiment.Config, run int) *topology.Network {
			rng := rand.New(rand.NewPCG(runner.DeriveSeed(cfg.Seed, "topo", run), 0x517cc1b727220a95))
			return topology.Random(topology.RandomConfig{Wormholes: 2}, rng)
		}
		return []family{{"random", "MR", random, true}}
	}
	return []family{
		{"cluster-1tier", "MR", grid(1), false},
		{"cluster-1tier", "DSR", grid(1), false},
		{"uniform6x6-1tier", "MR", uniform(6, 6), false},
		{"uniform6x6-1tier", "DSR", uniform(6, 6), false},
		{"cluster-2tier", "MR", grid(2), false},
		{"uniform10x6-1tier", "MR", uniform(10, 6), false},
	}
}

// condition builds one traced condition: the label matches the registry
// experiments' labels, so runs draw the same seeds.
func (t *reproTracer) condition(f family, attacked bool, parent int64) experiment.Condition {
	suffix, wormholes := "normal", 0
	if attacked {
		suffix, wormholes = "attack", 1
	}
	return experiment.Condition{
		Label:     f.topo + "/" + f.proto + "/" + suffix,
		Wormholes: wormholes,
		Build: func(cfg experiment.Config, run int) *topology.Network {
			sp := t.rec.begin(f.topoSpan(), parent)
			defer t.rec.end(sp)
			return f.build(cfg, run)
		},
		Protocol: func() routing.Protocol {
			if f.proto == "DSR" {
				return &tracedProtocol{&dsr.Protocol{}, t, parent, "routing.dsr_discover"}
			}
			return &tracedProtocol{&mr.Protocol{}, t, parent, "routing.mr_discover"}
		},
	}
}

// verdictOut is what the evaluation of one run leaves for the probe step.
type verdictOut struct {
	flagged bool
	suspect topology.Link
}

// tracedFamily drives one family through the public entry points: the
// normal and attacked conditions through experiment.RunCondition, training
// through sam.Trainer, scoring through sam.Analyze and the SAM, PMF and
// hybrid detectors, and probing of flagged runs through verify.Probe, the
// last two fanned out with runner.Map.
func (t *reproTracer) tracedFamily(cfg experiment.Config, f family) {
	rec := t.rec
	runCond := func(attacked bool) []experiment.RunResult {
		sp := rec.begin("experiment.run_condition", 0)
		defer rec.end(sp)
		return experiment.RunCondition(cfg, t.condition(f, attacked, sp.id))
	}
	normal, attacked := runCond(false), runCond(true)

	sp := rec.begin("sam.train", 0)
	trainer := sam.NewTrainer(f.topo+"/"+f.proto, 0)
	for _, r := range normal {
		trainer.Observe(r.Stats)
	}
	profile, err := trainer.Profile()
	rec.end(sp)
	if err != nil {
		panic("perfbench: training produced no profile: " + err.Error())
	}
	var neighbors *sam.NeighborTables
	if !f.random {
		neighbors = sam.RadioNeighborTables(f.build(cfg, 0).Topo)
	}

	all := append(append([]experiment.RunResult(nil), normal...), attacked...)
	mapSpan := rec.begin("runner.map", 0)
	verdicts := runner.Map(cfg.Workers, len(all), func(i int) verdictOut {
		routes := all[i].Routes
		var times []sim.Time
		if len(routes) > 0 {
			t.mu.Lock()
			times = t.times[&routes[0]]
			t.mu.Unlock()
		}
		s := timed(rec, "sam.analyze", mapSpan.id, func() sam.Stats { return sam.Analyze(routes) })
		v := timed(rec, "sam.evaluate", mapSpan.id, func() sam.Verdict {
			return sam.NewDetector(profile, sam.DetectorConfig{}).Evaluate(s)
		})
		timed(rec, "sam.pmf", mapSpan.id, func() sam.PMFVerdict {
			return sam.NewPMFDetector(profile, 0, 0).Evaluate(s)
		})
		timed(rec, "sam.hybrid", mapSpan.id, func() sam.HybridVerdict {
			return sam.NewHybridDetector(profile, neighbors, sam.HybridConfig{}).Evaluate(s, routes, times)
		})
		return verdictOut{flagged: v.Decision != sam.Normal, suspect: v.SuspectLink}
	})
	rec.end(mapSpan)

	var flagged []int
	for i := range attacked {
		if verdicts[len(normal)+i].flagged {
			flagged = append(flagged, i)
		}
	}
	probeSpan := rec.begin("runner.map", 0)
	label := f.topo + "/" + f.proto + "/attack"
	runner.ForEach(cfg.Workers, len(flagged), func(k int) {
		i := flagged[k]
		sp := rec.begin("verify.probe", probeSpan.id)
		defer rec.end(sp)
		topoSpan := rec.begin(f.topoSpan(), sp.id)
		net := f.build(cfg, i)
		rec.end(topoSpan)
		sc := attack.NewScenario(net, 1, attack.Blackhole)
		simNet := sim.NewNetwork(net.Topo, sim.Config{Seed: runner.DeriveSeed(cfg.Seed, label+"/probe", i)})
		sc.Arm(simNet)
		v := verify.Probe(simNet, verdicts[len(normal)+i].suspect, attacked[i].Routes, verify.Config{}, nil)
		sc.Teardown()
		t.probes.Add(1)
		if v.Condemned {
			t.condemned.Add(1)
		}
	})
	rec.end(probeSpan)
}

// tracedPass runs every family once and returns its wall time. A panic in
// the program is returned as an error, like runDef's.
func tracedPass(b *bench, t *reproTracer) (wall time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced driver, input seed %d: %v", b.inputs, r)
		}
	}()
	cfg := reproConfig(b.inputs, reproSpecs[b.workload].runs, nil)
	t0 := time.Now()
	for _, f := range reproFamilies(b.workload) {
		t.tracedFamily(cfg, f)
	}
	return time.Since(t0), nil
}

func traceRepro(b *bench) error {
	defs, err := reproDefs(b.workload)
	if err != nil {
		return err
	}
	reproSetup(b, defs)
	load, err := reproPasses(b, defs, b.seconds/2)
	if err != nil {
		return err
	}
	for id, ts := range load.expTimes {
		b.set("experiment."+id+"_s", median(ts), "s")
	}
	b.set("runner.busy_ratio", load.busy, "ratio")

	// Alternate untraced and traced passes of the same driver: the ratio of
	// their medians is the tracing overhead.
	on := &reproTracer{rec: newRecorder(true), times: map[*routing.Route][]sim.Time{}}
	var onWalls, offWalls []float64
	var windows []interval
	deadline := time.Now().Add(b.seconds / 2)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		off := &reproTracer{rec: newRecorder(false), times: map[*routing.Route][]sim.Time{}}
		offWall, err := tracedPass(b, off)
		lo := on.rec.now()
		var onWall time.Duration
		if err == nil {
			onWall, err = tracedPass(b, on)
		}
		b.count("trace", 2, 0)
		if err != nil {
			b.count("trace", 0, 1)
			b.fail("%v", err)
			break
		}
		offWalls = append(offWalls, offWall.Seconds())
		onWalls = append(onWalls, onWall.Seconds())
		windows = append(windows, interval{lo, on.rec.now()})
		clear(on.times)
	}
	b.spans = on.rec.spans
	reproLayerMetrics(b, on, windows)
	if len(onWalls) > 0 {
		b.set("trace.overhead", median(onWalls)/median(offWalls), "ratio")
	}
	return nil
}

// reproLayerMetrics derives the per-layer metrics from the traced passes.
func reproLayerMetrics(b *bench, t *reproTracer, windows []interval) {
	names := byName(b.spans)
	b.set("topology.random_us", names["topology.random"].meanUS(), "us")
	b.set("topology.grid_us", names["topology.grid"].meanUS(), "us")
	b.set("routing.mr_discover_us", names["routing.mr_discover"].meanUS(), "us")
	b.set("routing.dsr_discover_us", names["routing.dsr_discover"].meanUS(), "us")
	disc := float64(max(t.discoveries.Load(), 1))
	discSec := float64(names["routing.mr_discover"].total+names["routing.dsr_discover"].total) / 1e9
	b.set("sim.events_per_discovery", float64(t.events.Load())/disc, "count")
	b.set("sim.tx_per_discovery", float64(t.tx.Load())/disc, "count")
	b.set("routing.routes_per_discovery", float64(t.routes.Load())/disc, "count")
	if discSec > 0 {
		b.set("sim.events_per_s", float64(t.events.Load())/discSec, "1/s")
	}
	b.set("sam.analyze_small_us", names["sam.analyze"].meanUS(), "us")
	b.set("sam.evaluate_us", names["sam.evaluate"].meanUS(), "us")
	b.set("sam.pmf_us", names["sam.pmf"].meanUS(), "us")
	b.set("sam.hybrid_us", names["sam.hybrid"].meanUS(), "us")
	b.set("sam.train_us", names["sam.train"].meanUS(), "us")
	b.set("verify.probe_us", names["verify.probe"].meanUS(), "us")
	if p := t.probes.Load(); p > 0 {
		b.set("verify.condemn_ratio", float64(t.condemned.Load())/float64(p), "ratio")
	}
	setShares(b, layerSelf(b.spans))
	b.set("trace.coverage", windowCoverage(b.spans, windows), "ratio")
}
