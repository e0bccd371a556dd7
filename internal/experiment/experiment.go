// Package experiment reproduces the paper's evaluation: every table and
// figure has a runner that regenerates it from the simulator, plus extension
// experiments (packet-leash comparison, end-to-end detection rates) and the
// registry the samrepro command and the benchmark suite drive.
//
// Determinism and parallelism: each run's simulation seed is derived from
// (master seed, condition label, run index), and the source/destination pair
// of run i is derived from (master seed, run index) only — so the same pairs
// are compared across normal/attacked conditions and across protocols, as a
// paired experiment should. Runs fan out over the internal/runner harness
// and are merged back in grid order, so output is byte-stable for every
// worker count, including 1.
package experiment

import (
	"math/rand/v2"
	"runtime"
	"strconv"

	"samnet/internal/attack"
	"samnet/internal/routing"
	"samnet/internal/routing/dsr"
	"samnet/internal/routing/mr"
	"samnet/internal/runner"
	"samnet/internal/sam"
	"samnet/internal/sim"
	"samnet/internal/topology"
	"samnet/internal/verify"
)

// Config controls an experiment invocation.
type Config struct {
	// Runs is the number of simulation runs per condition (default 10, as
	// in the paper).
	Runs int
	// Seed is the master seed all per-run seeds derive from (default 2005,
	// the paper's year).
	Seed uint64
	// Workers bounds run-level parallelism (default NumCPU).
	Workers int
	// Progress, when non-nil, observes run completion for telemetry (run
	// counts and wall-clock only — see runner.Progress). It cannot influence
	// results: seeds derive from grid coordinates and results merge in grid
	// order regardless of the hook.
	Progress runner.Progress
	// Verify configures the step-2 probe engine the closed-loop experiment
	// (verifyloop) drives. The zero value takes verify.Config defaults;
	// fields follow that package's ExplicitZero convention, so
	// Verify.MaxProbes = verify.ExplicitZero disables probing (and with it
	// condemnation) entirely.
	Verify verify.Config
}

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 10
	}
	if c.Seed == 0 {
		c.Seed = 2005
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// deriveSeed hashes (master seed, label, run) into a simulation seed.
func deriveSeed(master uint64, label string, run int) uint64 {
	return runner.DeriveSeed(master, label, run)
}

// pairRNG returns the RNG that draws run i's source/destination pair. It
// depends only on (master seed, run), never on the condition, so conditions
// are compared on identical workloads.
func pairRNG(master uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(deriveSeed(master, "pair", run), 0x9e3779b97f4a7c15))
}

// topoRNG returns the RNG used when a condition rebuilds a random topology
// per run.
func topoRNG(master uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(deriveSeed(master, "topo", run), 0x517cc1b727220a95))
}

// Condition describes one simulated setting: a topology, a number of active
// wormholes, and a routing protocol.
type Condition struct {
	// Label names the condition ("cluster-1tier/MR/attack"); it feeds seed
	// derivation, so renaming a condition reshuffles its seeds.
	Label string
	// Build constructs the network for one run. Most conditions ignore run
	// and rebuild the same deterministic grid; random-topology conditions
	// draw a fresh placement from topoRNG.
	Build func(cfg Config, run int) *topology.Network
	// Wormholes is how many attacker pairs tunnel during the run.
	Wormholes int
	// Protocol constructs the routing protocol (fresh per run; protocols
	// are stateless but cheap to build).
	Protocol func() routing.Protocol
	// Behavior is the attackers' payload behaviour (default Forward).
	Behavior attack.PayloadBehavior
}

// RunResult is the outcome of one simulated route discovery.
type RunResult struct {
	Run      int
	Src, Dst topology.NodeID
	Routes   []routing.Route
	Stats    sam.Stats
	// Affected is the fraction of routes containing any active tunnel
	// link (0 under normal conditions).
	Affected float64
	// Overhead is Tx+Rx across all nodes for the discovery.
	Overhead int64
	// TunnelLinks are the active attack links (empty when Wormholes == 0).
	TunnelLinks []topology.Link
}

// simCache is one worker's reusable simulation state: a Network whose
// allocations (event queue, per-node slices) survive across the runs that
// worker executes. network() hands out the cached network retargeted onto
// the run's topology and config — behaviourally indistinguishable from a
// fresh sim.NewNetwork (see sim.Network.Retarget), so sharing it across
// whichever cells land on one worker cannot perturb results. A nil cache
// degrades to plain NewNetwork.
type simCache struct {
	net *sim.Network
}

func newSimCache() *simCache { return &simCache{} }

func (c *simCache) network(topo *topology.Topology, cfg sim.Config) *sim.Network {
	if c == nil {
		return sim.NewNetwork(topo, cfg)
	}
	if c.net == nil {
		c.net = sim.NewNetwork(topo, cfg)
	} else {
		c.net.Retarget(topo, cfg)
	}
	return c.net
}

// network builds the condition's network for one run with its wormholes
// installed; the scenario is nil when the condition has none.
func (c Condition) network(cfg Config, run int) (*topology.Network, *attack.Scenario) {
	net := c.Build(cfg, run)
	if c.Wormholes == 0 {
		return net, nil
	}
	return net, attack.NewScenario(net, c.Wormholes, c.Behavior)
}

// runOne executes one run of a condition.
func runOne(cfg Config, cond Condition, run int, sc1 *simCache) RunResult {
	net, sc := cond.network(cfg, run)
	src, dst := net.PickPair(pairRNG(cfg.Seed, run))
	simNet := sc1.network(net.Topo, sim.Config{Seed: deriveSeed(cfg.Seed, cond.Label, run)})
	if sc != nil {
		sc.Arm(simNet)
	}
	disc := cond.Protocol().Discover(simNet, src, dst)

	res := RunResult{
		Run:      run,
		Src:      src,
		Dst:      dst,
		Routes:   disc.Routes,
		Stats:    sam.Analyze(disc.Routes),
		Overhead: disc.Overhead(),
	}
	if sc != nil {
		res.TunnelLinks = sc.TunnelLinks()
		affected := 0
		for _, r := range disc.Routes {
			for _, l := range res.TunnelLinks {
				if r.ContainsLink(l) {
					affected++
					break
				}
			}
		}
		if len(disc.Routes) > 0 {
			res.Affected = float64(affected) / float64(len(disc.Routes))
		}
		sc.Teardown()
	}
	return res
}

// RunCondition executes cfg.Runs runs of cond over the runner harness and
// returns the results in run order.
func RunCondition(cfg Config, cond Condition) []RunResult {
	cfg = cfg.withDefaults()
	return runner.MapWorkerProgress(cfg.Workers, cfg.Runs, cfg.Progress, newSimCache, func(i int, sc *simCache) RunResult {
		return runOne(cfg, cond, i, sc)
	})
}

// RunConditions executes cfg.Runs runs of every condition as one flattened
// (condition x run) grid, so parallelism spans the whole grid instead of one
// condition at a time, and returns results[condition][run] in grid order.
// The output is identical to calling RunCondition per condition.
func RunConditions(cfg Config, conds []Condition) [][]RunResult {
	cfg = cfg.withDefaults()
	return runner.MapGridWorkerProgress(cfg.Workers, len(conds), cfg.Runs, cfg.Progress, newSimCache, func(c, i int, sc *simCache) RunResult {
		return runOne(cfg, conds[c], i, sc)
	})
}

// Standard network builders, shared across experiment definitions.

func buildCluster(k int) func(Config, int) *topology.Network {
	return func(Config, int) *topology.Network { return topology.Cluster(k, 2) }
}

func buildUniform(cols, rows, k int) func(Config, int) *topology.Network {
	return func(Config, int) *topology.Network { return topology.Uniform(cols, rows, k, 2) }
}

func buildRandom() func(Config, int) *topology.Network {
	return func(cfg Config, run int) *topology.Network {
		return topology.Random(topology.RandomConfig{Wormholes: 2}, topoRNG(cfg.Seed, run))
	}
}

func mrProtocol() routing.Protocol  { return &mr.Protocol{} }
func dsrProtocol() routing.Protocol { return &dsr.Protocol{} }

// Cond is a small helper assembling a Condition.
func clusterCond(k, wormholes int, proto func() routing.Protocol, protoName string) Condition {
	suffix := "normal"
	if wormholes > 0 {
		suffix = "attack"
	}
	return Condition{
		Label:     "cluster-" + strconv.Itoa(k) + "tier/" + protoName + "/" + suffix,
		Build:     buildCluster(k),
		Wormholes: wormholes,
		Protocol:  proto,
	}
}

func uniformCond(cols, rows, k, wormholes int, proto func() routing.Protocol, protoName string) Condition {
	suffix := "normal"
	if wormholes > 0 {
		suffix = "attack"
	}
	return Condition{
		Label:     "uniform" + strconv.Itoa(cols) + "x" + strconv.Itoa(rows) + "-" + strconv.Itoa(k) + "tier/" + protoName + "/" + suffix,
		Build:     buildUniform(cols, rows, k),
		Wormholes: wormholes,
		Protocol:  proto,
	}
}

func randomCond(wormholes int, proto func() routing.Protocol, protoName string) Condition {
	suffix := "normal"
	if wormholes > 0 {
		suffix = "attack"
	}
	return Condition{
		Label:     "random/" + protoName + "/" + suffix,
		Build:     buildRandom(),
		Wormholes: wormholes,
		Protocol:  proto,
	}
}
