package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending on purpose: tail must sort
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
		ok    bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples above 990
		{999, 0.9, 900, true},   // p99 would have 9 beyond it
		{100, 0.9, 90, true},
		{99, 0.5, 50, true},
		{20, 0.5, 10, true},
		{19, 0, 0, false},
	} {
		got, ok := tail(ascending(tc.n))
		if ok != tc.ok || got.Q != tc.q || got.Value != tc.value || got.N != tc.n {
			t.Errorf("tail of %d samples = %+v ok=%v, want q=%g value=%g n=%d ok=%v",
				tc.n, got, ok, tc.q, tc.value, tc.n, tc.ok)
		}
		if ok && beyond(got.Q, tc.n) < minBeyond {
			t.Errorf("tail of %d samples: p%g has %d samples beyond it", tc.n, got.Q*100, beyond(got.Q, tc.n))
		}
	}
}

func TestWindowPercentileIgnoresOneStalledWindow(t *testing.T) {
	var windows [][]float64
	for w := 0; w < 5; w++ {
		windows = append(windows, ascending(100))
	}
	for i := range windows[2] {
		windows[2][i] *= 50 // a window in which everything stalled
	}
	got, ok := windowPercentile(windows, 0.9)
	if !ok || got.Value != 90 || got.N != 500 {
		t.Errorf("windowPercentile = %+v ok=%v, want p90 90 over 500 samples", got, ok)
	}
	if _, ok := windowPercentile(windows, 0.99); ok {
		t.Error("p99 of 100-sample windows has 1 sample beyond it, want ok=false")
	}
	if got, ok := windowTail(windows); !ok || got.Q != 0.9 {
		t.Errorf("windowTail = %+v ok=%v, want p90", got, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "experiment.run_condition", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "routing.mr_discover", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "routing.mr_discover", Start: 20, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "topology.grid", Start: 90, End: 120},      // runs past its parent
		{ID: 5, Parent: 2, Name: "sam.analyze", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// The parent is covered by [10,60) and [90,100): 60 of its 100.
	want := map[int64]int64{1: 40, 2: 20, 3: 40, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["routing"] != 60 || layers["experiment"] != 40 || layers["topology"] != 30 || layers["sam"] != 10 {
		t.Errorf("layer self times = %v", layers)
	}
	if got := coverage(spans, 0, 200); got != 0.6 {
		t.Errorf("coverage = %g, want 0.6", got)
	}
}

func TestRecorderOffKeepsNothing(t *testing.T) {
	rec := newRecorder(false)
	rec.end(rec.begin("sam.analyze", 0))
	if len(rec.spans) != 0 {
		t.Fatalf("recorder off kept %d spans", len(rec.spans))
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const period = 2 * time.Millisecond
	const stall = 30 * time.Millisecond
	samples := openLoop(1, period, 40*period, func(k int64) bool {
		if k == 2 {
			time.Sleep(stall)
		}
		return true
	})
	if len(samples) != 40 {
		t.Fatalf("%d requests issued, want 40", len(samples))
	}
	byK := map[int64]sample{}
	for _, s := range samples {
		byK[s.k] = s
	}
	// Request 3 was due one period after the stalled request 2 began, so it
	// waited for most of the stall: its latency from the due time shows it
	// although the request itself was quick.
	if s := byK[3]; s.lat < stall-2*period || s.late < stall-2*period {
		t.Errorf("request 3 behind the stall: latency %v, lateness %v; want both near %v", s.lat, s.late, stall-period)
	}
	if s := byK[2]; s.lat < stall {
		t.Errorf("stalled request latency %v < stall %v", s.lat, stall)
	}
	for k := int64(3); k < 40; k++ {
		if s := byK[k]; s.lat < s.done-s.sent {
			t.Errorf("request %d: latency %v shorter than its own service time %v", k, s.lat, s.done-s.sent)
		}
	}
}

func TestRunClockTimesRunsPerWorker(t *testing.T) {
	c := newRunClock()
	c.Start(4)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				time.Sleep(5 * time.Millisecond)
				c.RunDone()
			}
		}()
	}
	wg.Wait()
	lat, busy := c.take()
	if len(lat) != 4 || c.done.Load() != 4 {
		t.Fatalf("%d latencies, %d runs; want 4", len(lat), c.done.Load())
	}
	for _, l := range lat {
		// Each run lasts one sleep; a clock that mixed up the two workers
		// would report near-zero gaps between their interleaved RunDones.
		if l < 4.5 {
			t.Errorf("run latency %.2f ms, want about 5", l)
		}
	}
	if busy < 19*time.Millisecond {
		t.Errorf("busy %v, want about 20ms", busy)
	}
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark sets %v", e2e, endToEnd)
	}
	want := layerMetrics()
	for _, m := range decl.PerLayer {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s (%s): benchmark declares unit %q", m.Name, m.Unit, unit)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("per-layer metric %s missing from BENCHMARK.json", name)
	}
}

func TestDigestsRecordEveryWorkloadAndInputSeed(t *testing.T) {
	rec, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for seed := 0; seed < digestSeeds; seed++ {
			if rec[name][fmt.Sprint(seed)] == "" {
				t.Errorf("digests.json records no digest for %s input seed %d", name, seed)
			}
		}
	}
}

func TestEverySeedIsCheckedAgainstARecordedDigest(t *testing.T) {
	rec, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{0, 7, 99, 100, 2005, 1 << 40} {
		b := newBench("serve-fleet", seed, time.Second, false)
		if err := b.checkDigest(rec["serve-fleet"][fmt.Sprint(seed%digestSeeds)]); err != nil {
			t.Fatal(err)
		}
		if len(b.problems) != 0 || b.phases["verdict"].Attempted != 1 {
			t.Errorf("seed %d: the recorded digest did not pass: %v", seed, b.problems)
		}
		b.checkDigest("not the recorded digest")
		if b.phases["verdict"].Failed != 1 || len(b.problems) != 1 {
			t.Errorf("seed %d: a wrong digest passed", seed)
		}
	}
	b := newBench("no-such-workload", 1, time.Second, false)
	b.checkDigest("anything")
	if b.phases["verdict"].Failed != 1 {
		t.Errorf("a workload with no recorded digest passed")
	}
}
