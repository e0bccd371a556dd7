package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// backdate rewinds a resident profile's last-access stamp so eviction tests
// need no wall-clock sleeps.
func backdate(t *testing.T, svc *Service, name string, age time.Duration) {
	t.Helper()
	e, err := svc.store.get(name)
	if err != nil {
		t.Fatal(err)
	}
	e.lastAccess.Store(time.Now().Add(-age).UnixNano())
}

// TestTTLEviction: a profile idle past ProfileTTL is swept, counted under
// reason="ttl", and subsequent lookups answer 404; a fresh profile survives
// the same sweep.
func TestTTLEviction(t *testing.T) {
	ts, svc := newTrainedServer(t, Config{ProfileTTL: time.Hour})
	if _, err := postJSONStatus(t, ts.URL+"/v1/profiles/fresh/train",
		mustJSON(t, TrainRequest{RouteSets: genSets(3, false, 100)}), http.StatusOK); err != nil {
		t.Fatal(err)
	}

	backdate(t, svc, "test", 2*time.Hour)
	ttl, lru := svc.sweepOnce(time.Now())
	if ttl != 1 || lru != 0 {
		t.Fatalf("sweep evicted ttl=%d lru=%d, want 1/0", ttl, lru)
	}
	if _, err := svc.store.get("test"); err == nil {
		t.Error("idle profile still resident after TTL sweep")
	}
	if _, err := svc.store.get("fresh"); err != nil {
		t.Errorf("fresh profile swept: %v", err)
	}

	resp, err := http.Get(ts.URL + "/v1/profiles/test")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET evicted profile = %d, want 404", resp.StatusCode)
	}
	text := scrape(t, ts.URL)
	if !strings.Contains(text, `samserve_profile_evictions_total{reason="ttl"} 1`) {
		t.Error("ttl eviction not counted in metrics")
	}
}

// TestTTLSweepSparesActive: an entry touched after the candidate scan's
// observation is not evicted (the removeIfIdle double-check).
func TestTTLSweepSparesActive(t *testing.T) {
	_, svc := newTrainedServer(t, Config{ProfileTTL: time.Hour})
	backdate(t, svc, "test", 2*time.Hour)
	// A lookup between the scan and the sweep re-stamps the entry.
	if _, err := svc.store.get("test"); err != nil {
		t.Fatal(err)
	}
	if ttl, _ := svc.sweepOnce(time.Now()); ttl != 0 {
		t.Fatalf("sweep evicted %d just-touched profiles", ttl)
	}
}

// TestLRUCap: training past MaxProfiles evicts the least recently used
// profile synchronously, counted under reason="lru".
func TestLRUCap(t *testing.T) {
	ts, svc := newTrainedServer(t, Config{MaxProfiles: 2})
	// Stagger ages: "test" oldest, then "b", then "c" arrives and must evict
	// "test" only.
	backdate(t, svc, "test", time.Hour)
	for _, name := range []string{"b", "c"} {
		if _, err := postJSONStatus(t, ts.URL+"/v1/profiles/"+name+"/train",
			mustJSON(t, TrainRequest{RouteSets: genSets(3, false, 200)}), http.StatusOK); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.store.count(); got != 2 {
		t.Fatalf("store holds %d profiles, want 2", got)
	}
	if _, err := svc.store.get("test"); err == nil {
		t.Error("LRU profile survived the cap")
	}
	for _, name := range []string{"b", "c"} {
		if _, err := svc.store.get(name); err != nil {
			t.Errorf("profile %q evicted, want resident: %v", name, err)
		}
	}
	if text := scrape(t, ts.URL); !strings.Contains(text, `samserve_profile_evictions_total{reason="lru"} 1`) {
		t.Error("lru eviction not counted in metrics")
	}
}

// postJSONStatus posts a body and asserts the response status.
func postJSONStatus(t *testing.T, url, body string, want int) ([]byte, error) {
	t.Helper()
	resp, out := postJSON(t, url, body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d: %s", url, resp.StatusCode, want, out)
	}
	return out, nil
}

// TestLoadSurvivesConcurrentDelete pins the load-vs-eviction race: installs
// racing explicit removals must never leave a "resident but untrained" or
// silently-dropped profile — after the final load the profile answers with a
// live detector. Run under -race this also proves the retry loop is clean.
func TestLoadSurvivesConcurrentDelete(t *testing.T) {
	svc := New(Config{Shards: 1})
	defer svc.Close()
	p := benchProfile(t, "raced", 7000)

	var wg sync.WaitGroup
	start := make(chan struct{})
	const iters = 200
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iters; i++ {
			if err := svc.LoadProfile("raced", p); err != nil {
				t.Errorf("load %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iters; i++ {
			svc.store.remove("raced")
		}
	}()
	close(start)
	wg.Wait()

	// The loader finished last word or not; either way a final load must
	// land on a resident, trained entry.
	if err := svc.LoadProfile("raced", p); err != nil {
		t.Fatal(err)
	}
	e, err := svc.store.get("raced")
	if err != nil {
		t.Fatalf("profile lost after concurrent load/delete: %v", err)
	}
	if _, _, _, _, err := e.snapshot(); err != nil {
		t.Fatalf("installed profile has no detector: %v", err)
	}
}

// TestTrainBatch: the endpoint trains one profile per scenario and the
// resulting profiles are byte-identical across repeated sweeps and across
// parallelism levels — the runner determinism contract surfaced over HTTP.
func TestTrainBatch(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{Workers: 4})
	req := func(parallel int) string {
		return mustJSON(t, TrainBatchRequest{
			Scenarios: []TrainScenarioJSON{
				{Topo: "cluster"},
				{Topo: "uniform6x6", Tier: 2, Protocol: "dsr", Profile: "grid-dsr"},
			},
			Runs:     6,
			Parallel: parallel,
		})
	}
	var resp TrainBatchResponse
	out, _ := postJSONStatus(t, ts.URL+"/v1/train/batch", req(4), http.StatusOK)
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 2 || resp.Cells != 12 || resp.Seed != 2005 || resp.Runs != 6 {
		t.Fatalf("batch response = %+v", resp)
	}
	for _, sc := range resp.Scenarios {
		if !sc.Trained || sc.Runs != 6 || sc.Error != "" {
			t.Fatalf("scenario result = %+v, want 6 trained runs", sc)
		}
	}
	if resp.Scenarios[0].Profile != "cluster-1tier-MR" {
		t.Errorf("default profile name = %q", resp.Scenarios[0].Profile)
	}
	if resp.Scenarios[0].Label != "cluster-1tier/MR" {
		t.Errorf("canonical label = %q", resp.Scenarios[0].Label)
	}
	if resp.Scenarios[1].Profile != "grid-dsr" {
		t.Errorf("explicit profile name = %q", resp.Scenarios[1].Profile)
	}

	first := [2][]byte{
		getProfileBody(t, ts.URL, "cluster-1tier-MR"),
		getProfileBody(t, ts.URL, "grid-dsr"),
	}
	// Re-running the same grid — serially this time — must converge on the
	// identical bytes: replace semantics plus grid-coordinate seeding.
	postJSONStatus(t, ts.URL+"/v1/train/batch", req(1), http.StatusOK)
	second := [2][]byte{
		getProfileBody(t, ts.URL, "cluster-1tier-MR"),
		getProfileBody(t, ts.URL, "grid-dsr"),
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("scenario %d: profiles diverge across sweeps:\n %s\n %s", i, first[i], second[i])
		}
	}
}

// TestTrainBatchStream: stream mode answers 200 with progress text whose
// final line is the result JSON.
func TestTrainBatchStream(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})
	body := mustJSON(t, TrainBatchRequest{
		Scenarios: []TrainScenarioJSON{{Topo: "cluster"}},
		Runs:      4,
		Stream:    true,
	})
	resp, out := postJSON(t, ts.URL+"/v1/train/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d: %s", resp.StatusCode, out)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var last TrainBatchResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final stream line is not the result JSON: %v\n%s", err, out)
	}
	if len(last.Scenarios) != 1 || !last.Scenarios[0].Trained {
		t.Fatalf("streamed result = %+v", last)
	}
}

// TestTrainBatchErrors: malformed grids are refused before any work runs.
func TestTrainBatchErrors(t *testing.T) {
	ts, svc := newTrainedServer(t, Config{})
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty grid", `{"scenarios":[]}`, http.StatusBadRequest},
		{"unknown topo", `{"scenarios":[{"topo":"moon"}]}`, http.StatusBadRequest},
		{"unknown protocol", `{"scenarios":[{"topo":"cluster","protocol":"ospf"}]}`, http.StatusBadRequest},
		{"bad tier", `{"scenarios":[{"topo":"cluster","tier":9}]}`, http.StatusBadRequest},
		{"duplicate profile", `{"scenarios":[{"topo":"cluster"},{"topo":"cluster"}]}`, http.StatusBadRequest},
		{"runs too large", `{"scenarios":[{"topo":"cluster"}],"runs":100000}`, http.StatusBadRequest},
		{"grid too large", mustJSON(t, TrainBatchRequest{
			Scenarios: manyScenarios(t, 40), Runs: 4000}), http.StatusBadRequest},
		{"not json", `{"scenarios":`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := postJSON(t, ts.URL+"/v1/train/batch", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.want, out)
			}
		})
	}
	// Nothing from the refused grids may be resident.
	if _, err := svc.store.get("cluster-1tier-MR"); err == nil {
		t.Error("refused batch request still installed a profile")
	}
}

// manyScenarios builds n distinct-profile cluster scenarios.
func manyScenarios(t *testing.T, n int) []TrainScenarioJSON {
	t.Helper()
	out := make([]TrainScenarioJSON, n)
	for i := range out {
		out[i] = TrainScenarioJSON{Topo: "cluster", Profile: string(rune('a'+i%26)) + string(rune('0'+i/26))}
	}
	return out
}
