// Command perfbench is the repository's layered benchmark. One invocation
// runs one named workload for a fixed time, checks the program's outputs,
// and prints its metrics: the end-to-end metrics with --trace 0, or, with
// --trace 1, per-layer metrics taken from spans the benchmark records around
// its own calls into each module. The last line of standard output is one
// JSON object; the lines before it are a human-readable report. See
// README.md for the workloads, the metrics and the layer they belong to.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload repro-grid --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// maxProcs is the core budget every workload is written for: the load
// generator uses at most two connections and the experiments two workers.
const maxProcs = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase counts the operations one phase of a run attempted and failed.
type phase struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// bench is the state of one benchmark invocation.
type bench struct {
	workload string
	seed     uint64
	inputs   uint64 // the input seed the workload seed selects
	seconds  time.Duration
	traced   bool

	metrics  map[string]metric // the result line's metrics
	extra    map[string]metric // report-only figures
	notes    []string
	phases   map[string]*phase
	problems []string // correctness failures; any one makes correct false
	spans    []span
	setups   []float64 // timed set-ups, seconds
}

// set records a result-line metric.
func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// report records a figure printed in the report but not in the result line.
func (b *bench) report(name string, v float64, unit string) { b.extra[name] = metric{v, unit} }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// count adds attempted and failed operations to a phase.
func (b *bench) count(name string, attempted, failed int64) {
	p := b.phases[name]
	if p == nil {
		p = &phase{}
		b.phases[name] = p
	}
	p.Attempted += attempted
	p.Failed += failed
}

// endToEnd lists the result line's metrics of an untraced run.
var endToEnd = []string{"setup_s", "ops_per_s", "alloc_b_per_op", "latency_p50_ms"}

// layerMetrics lists the result line's metrics of a traced run with their
// units. Every workload reports all of them, as 0 where it does not
// exercise the layer.
func layerMetrics() map[string]string {
	m := map[string]string{
		"topology.random_us": "us", "topology.grid_us": "us",
		"sim.events_per_s": "1/s", "sim.events_per_discovery": "count", "sim.tx_per_discovery": "count",
		"routing.mr_discover_us": "us", "routing.dsr_discover_us": "us", "routing.routes_per_discovery": "count",
		"sam.analyze_small_us": "us", "sam.analyze_large_us": "us", "sam.evaluate_us": "us",
		"sam.pmf_us": "us", "sam.hybrid_us": "us", "sam.train_us": "us",
		"verify.probe_us": "us", "verify.condemn_ratio": "ratio", "runner.busy_ratio": "ratio",
		"service.detect_handler_us": "us", "service.stream_line_us": "us", "service.wire_us": "us",
		"service.detect_allocs": "count", "service.train_handler_us": "us",
		"http.rtt_us": "us", "cluster.hop_us": "us", "loadgen.late_p99_ms": "ms",
		"trace.coverage": "ratio", "trace.overhead": "ratio",
	}
	for _, layer := range []string{"topology", "routing", "sam", "verify", "runner", "experiment", "service", "http", "cluster"} {
		m[layer+".self_share"] = "ratio"
	}
	for _, spec := range reproSpecs {
		for _, id := range spec.ids {
			m["experiment."+id+"_s"] = "s"
		}
	}
	return m
}

// workloads maps each workload name to its untraced and traced drivers and
// to the function that computes the digest of its checked outputs.
var workloads = map[string]struct {
	run, trace func(*bench) error
	digest     func(*bench) (string, error)
}{
	"repro-grid":   {runRepro, traceRepro, reproDigest},
	"repro-random": {runRepro, traceRepro, reproDigest},
	"serve-stream": {runStream, traceServe, serveDigest},
	"serve-fleet":  {runFleet, traceServe, serveDigest},
}

// digestSeeds is how many input seeds digests.json records per workload.
// The workload seed selects input seed seed % digestSeeds, so the outputs
// of every run, whatever its seed, are checked against a recorded digest.
const digestSeeds = 100

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload -> input seed -> the SHA-256 of the
// workload's checked outputs, as --record-digests printed them.
func recordedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// checkDigest compares the digest of the run's checked outputs with the one
// digests.json records for the workload and input seed. A missing record
// fails the run as a mismatch does: an output nothing vouches for is
// unchecked.
func (b *bench) checkDigest(got string) error {
	rec, err := recordedDigests()
	if err != nil {
		return err
	}
	want, ok := rec[b.workload][fmt.Sprint(b.inputs)]
	b.count("verdict", 1, 0)
	switch {
	case !ok:
		b.count("verdict", 0, 1)
		b.fail("digests.json records no digest for %s input seed %d; outputs digest to %s", b.workload, b.inputs, got)
	case want != got:
		b.count("verdict", 0, 1)
		b.fail("outputs digest to %s, digests.json records %s for input seed %d", got, want, b.inputs)
	default:
		b.note("outputs match the recorded digest %s of input seed %d", got, b.inputs)
	}
	return nil
}

// recordDigests prints the output digests of input seeds 0..digestSeeds-1
// of every workload, in the layout of digests.json.
func recordDigests() error {
	out := map[string]map[string]string{}
	for name, w := range workloads {
		out[name] = map[string]string{}
		for seed := uint64(0); seed < digestSeeds; seed++ {
			d, err := w.digest(newBench(name, seed, time.Second, false))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			out[name][fmt.Sprint(seed)] = d
		}
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

func newBench(workload string, seed uint64, seconds time.Duration, traced bool) *bench {
	return &bench{
		workload: workload, seed: seed, inputs: seed % digestSeeds, seconds: seconds, traced: traced,
		metrics: map[string]metric{}, extra: map[string]metric{}, phases: map[string]*phase{},
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: repro-grid, repro-random, serve-stream or serve-fleet")
		seed     = flag.Uint64("seed", 0, "workload seed; the program receives only inputs generated from it")
		seconds  = flag.Int("seconds", 10, "measured duration of the run")
		traceOn  = flag.Int("trace", 0, "1 runs the traced driver and prints per-layer metrics")
		record   = flag.Bool("record-digests", false, "print the output digests of every workload's input seeds as JSON and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	if *record {
		if err := recordDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceOn)
		os.Exit(2)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	drive := w.run
	if b.traced {
		drive = w.trace
	}
	if err := drive(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// provenance describes what was measured and where.
func provenance() map[string]any {
	sha := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return map[string]any{
		"git_sha":    sha,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      nproc(),
		"network":    "loopback (127.0.0.1); every served request crossed the host's loopback interface",
	}
}

// nproc returns the CPU count the nproc command reports (it honours the
// container's CPU affinity), falling back to the Go runtime's count.
func nproc() int {
	out, err := exec.Command("nproc").Output()
	if err == nil {
		var n int
		if _, err := fmt.Sscan(strings.TrimSpace(string(out)), &n); err == nil {
			return n
		}
	}
	return runtime.NumCPU()
}

// finish prints the report and the result line, and writes the full record
// (and, when traced, the spans) next to the benchmark binary.
func (b *bench) finish(w *os.File) error {
	var attempted, failed int64
	for _, p := range b.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	if attempted == 0 {
		b.fail("no operation was attempted")
		attempted = 1
	}
	b.report("error_ratio", float64(failed)/float64(attempted), "ratio")
	if len(b.setups) > 0 {
		b.set("setup_s", median(b.setups), "s")
		b.note("setup_s: median of %d set-ups, from %.4f to %.4f s", len(b.setups), slices.Min(b.setups), slices.Max(b.setups))
	}
	if b.traced {
		want := layerMetrics()
		for name, unit := range want {
			if _, ok := b.metrics[name]; !ok {
				b.set(name, 0, unit)
			}
		}
		for name := range b.metrics {
			if _, ok := want[name]; !ok {
				return fmt.Errorf("traced metric %q is not a declared per-layer metric", name)
			}
		}
	} else {
		for _, name := range endToEnd {
			if _, ok := b.metrics[name]; !ok {
				return fmt.Errorf("end-to-end metric %q was not measured", name)
			}
		}
	}
	correct := len(b.problems) == 0

	prov := provenance()
	mode := "untraced (end-to-end metrics)"
	if b.traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d (input seed %d) seconds=%d %s\n",
		b.workload, b.seed, b.inputs, int(b.seconds/time.Second), mode)
	for _, k := range sortedKeys(prov) {
		fmt.Fprintf(w, "# %s: %v\n", k, prov[k])
	}
	for _, name := range sortedKeys(b.phases) {
		p := b.phases[name]
		fmt.Fprintf(w, "# phase %-8s attempted=%d failed=%d\n", name, p.Attempted, p.Failed)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	all := map[string]metric{}
	for k, v := range b.extra {
		all[k] = v
	}
	for k, v := range b.metrics {
		all[k] = v
	}
	for _, k := range sortedKeys(all) {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "# INCORRECT: %s\n", p)
	}

	rec := map[string]any{
		"provenance": prov, "workload": b.workload, "seed": b.seed, "input_seed": b.inputs, "traced": b.traced,
		"phases": b.phases, "metrics": all, "notes": b.notes, "problems": b.problems,
	}
	if err := b.writeRecord(rec); err != nil {
		// The record is a by-product; the result line below is the output.
		fmt.Fprintln(os.Stderr, "perfbench: writing the run record:", err)
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, b.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeRecord writes the run's full record and, when traced, its spans to
// a results directory beside the benchmark binary, inside the build
// directory.
func (b *bench) writeRecord(rec map[string]any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(exe), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-untraced", b.workload, b.seed)
	if b.traced {
		stem = fmt.Sprintf("%s-seed%d-traced", b.workload, b.seed)
		if err := writeSpans(filepath.Join(dir, stem+".spans.json"), b.spans); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".json"), blob, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setLatency sets the result line's median latency from per-op samples
// (ms) split into windows, and reports the median and the tails under the
// workload's own name for the op. Tails are report-only: on a shared 2-core
// host they are set by stalls of the host itself, and their spread between
// runs of the same code exceeds any usable bound (see README.md).
func (b *bench) setLatency(op string, windows [][]float64) {
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	p50 := percentile(all, 0.5)
	p90, _ := windowPercentile(windows, 0.9)
	t, ok := windowTail(windows)
	if !ok {
		b.fail("%d %s latency samples in %d windows: too few for any percentile with %d beyond it in every window",
			len(all), op, len(windows), minBeyond)
	}
	b.set("latency_p50_ms", p50.Value, "ms")
	b.report(op+"_p50_ms", p50.Value, "ms")
	b.report(op+"_p90_ms", p90.Value, "ms")
	b.report(fmt.Sprintf("%s_p%g_ms", op, t.Q*100), t.Value, "ms")
	b.note("%s latency: p50 over n=%d samples; p90 and p%g are medians over %d windows of each window's percentile",
		op, len(all), t.Q*100, len(windows))
}

// An untraced run times its set-up in two rounds, one before and one after
// the measured phase, each of at least minSetups set-ups and setupBudget of
// time, and setup_s is the median over both. One set-up takes a tenth to
// half a second. On a shared host a fixed CPU loop of that length varies by
// ±40% from one run of it to the next, and the host's speed drifts over
// tens of seconds, so set-ups taken at one moment say little.
const (
	minSetups   = 5
	setupBudget = 2 * time.Second
)

// setupRound times one round of set-ups, each from a collected heap, so
// the garbage of the set-up before does not decide when the collector
// runs; reset, when not nil, runs untimed before each set-up.
func (b *bench) setupRound(reset func(), setup func() error) error {
	start := time.Now()
	for n := 0; n < minSetups || time.Since(start) < setupBudget; n++ {
		if reset != nil {
			reset()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	return nil
}

// setShares reports each layer's share of the summed self time.
func setShares(b *bench, self map[string]int64) {
	var total int64
	for _, v := range self {
		total += v
	}
	if total == 0 {
		return
	}
	for layer, v := range self {
		b.set(layer+".self_share", float64(v)/float64(total), "ratio")
	}
}

// allocBytes returns the bytes allocated by the process so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
