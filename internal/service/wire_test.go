package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"samnet/internal/sam"
)

// TestDetectServeZeroAlloc pins the tentpole invariant: once warm, a full
// /v1/detect request — mux dispatch, instrumentation, body read, wire
// decode, analysis, locked scoring, wire encode — allocates nothing beyond
// the ByLink slice sam.Analyze returns, and the codec layer by itself
// allocates nothing at all (style of TestBroadcastDeliverZeroAlloc).
func TestDetectServeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so pooled-path allocation counts are meaningless")
	}
	// Telemetry off: decision records are an optional feature with their own
	// (bounded) cost; the serving-path guarantee is about the wire layer.
	svc := New(Config{DecisionBuffer: -1})
	t.Cleanup(svc.Close)
	mux := svc.Handler()

	trainBody, err := json.Marshal(TrainRequest{RouteSets: genSets(20, false, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/profiles/zero/train", bytes.NewReader(trainBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("train: %d %s", rec.Code, rec.Body)
	}
	body, err := json.Marshal(DetectRequest{Profile: "zero", Routes: genSets(1, true, 5000)[0]})
	if err != nil {
		t.Fatal(err)
	}

	req, rd, w := benchRequest("/v1/detect", body)
	// Warm the pools (scratch, statusWriter, analyze scratch).
	for i := 0; i < 8; i++ {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	// The ByLink slice sam.Analyze returns is the one allocation a detect
	// needs; scoring and everything else must be free. The CI bench guard
	// enforces ≤ 9 on the default config (decision capture on); this test
	// pins the wire layer itself much tighter.
	if got := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.status = 0
		mux.ServeHTTP(w, req)
	}); got > 1 {
		t.Errorf("detect request allocates %.1f times per op, want <= 1", got)
	}

	// The codec layer alone — parse, materialize, encode — must be exactly
	// zero once its scratch is warm.
	sc := getScratch()
	defer putScratch(sc)
	v := goldenVerdict(1)
	if got := testing.AllocsPerRun(200, func() {
		sc.reset()
		sc.body = append(sc.body[:0], body...)
		if err := sc.parseRequest(kindDetect); err != nil {
			t.Fatal(err)
		}
		sc.materializeRoutes()
		sc.out = appendDetectResponse(sc.out[:0], sc.profile, v)
	}); got != 0 {
		t.Errorf("codec path allocates %.1f times per op, want 0", got)
	}
}

// wireDifferentialBodies are detect bodies both decoders must agree on:
// the fixed cases of TestWireParserMatchesEncodingJSON and the seeds of
// FuzzWireParserMatchesEncodingJSON.
var wireDifferentialBodies = []string{
	`{"profile":"p","routes":[[0,1,2],[0,3,2]]}`,
	`{"profile":"p","routes":[]}`,
	`{"profile":"p","routes":null}`,
	`{"profile":null,"routes":[[1,2]]}`,
	`{"PROFILE":"p","Routes":[[7]]}`,               // case-insensitive keys
	`{"profile":"a","profile":"b","routes":[[1]]}`, // last key wins
	`{"routes":[[1,2]],"routes":[[3,4]]}`,
	`{"profile":"p","routes":[[0,1]],"update":false}`,
	`{"profile":"p","routes":[[0,1]],"update":null}`,
	`{"profile":"p","routes":[[0,1]],"explain":true}`,
	`{"profile":"p","routes":[[0,1]],"unknown":{"deep":[1,{"x":"y"}]}}`,
	`  {  "profile" : "p" , "routes" : [ [ 0 , 1 ] ] }  `,
	`{"profile":"pé😀","routes":[[1]]}`, // escapes + surrogate pair
	`{"profile":"a\"b\\c\n","routes":[[1]]}`,
	`{}`,
	`null`,
	`{"profile":"p","routes":[[9999999999999999999]]}`, // int64 overflow
	`{"profile":"p","routes":[[1.5]]}`,                 // fraction
	`{"profile":"p","routes":[[1e2]]}`,                 // exponent
	`{"profile":"p","routes":[[01]]}`,                  // leading zero
	`{"profile":"p","routes":[[-0]]}`,
	`{"profile":"p","routes":[[2,3]]}{"x":1}`, // trailing garbage
	`{"profile":"p","routes":[[0,1`,           // truncated
	`{"profile":"p",}`,                        // trailing comma
	`[1,2,3]`,                                 // wrong top-level type
	`{"profile":"p","routes":[null,[1,2]]}`,   // null route element
	`{"profile":"p","routes":[[1],null]}`,
	`truex`,
	``,
	`{"update":true}`,
	`{"profile":123}`, // wrong field type
	`{"routes":[[true]]}`,
	`{"routes":"nope"}`,
}

// TestWireParserMatchesEncodingJSON is the differential decode test: every
// body is decoded by both the old encoding/json path and the pooled parser,
// and they must agree on accept/reject and on every decoded field.
func TestWireParserMatchesEncodingJSON(t *testing.T) {
	for _, body := range wireDifferentialBodies {
		checkWireParserMatches(t, body)
	}
}

// FuzzWireParserMatchesEncodingJSON runs the differential decode test on
// arbitrary bodies. Besides the fixed cases it is seeded with number
// literals at every edge of the one-pass integer scan: lone signs, a
// dangling fraction or exponent, leading zeros, the int64 limits and the
// node ID bound.
func FuzzWireParserMatchesEncodingJSON(f *testing.F) {
	for _, body := range wireDifferentialBodies {
		f.Add(body)
	}
	for _, n := range []string{
		"-0", "-", "1.", "1e", "1.5e3", "01",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"1073741824", "1 ,2",
	} {
		f.Add(`{"profile":"p","routes":[[` + n + `]]}`)
	}
	f.Fuzz(checkWireParserMatches)
}

// parseIntTwoPass is the parseIntValue the one-pass scan replaced:
// scanNumber validates the literal, then a second loop converts it.
func (p *jparser) parseIntTwoPass() (int64, error) {
	lit, isInt, err := p.scanNumber()
	if err != nil {
		return 0, err
	}
	if !isInt {
		return 0, fmt.Errorf("invalid JSON body: number %s is not an integer", lit)
	}
	digits := lit
	if digits[0] == '-' {
		digits = digits[1:]
	}
	var v int64
	for _, c := range digits {
		d := int64(c - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("invalid JSON body: number %s overflows", lit)
		}
		v = v*10 + d
	}
	if lit[0] == '-' {
		v = -v
	}
	return v, nil
}

// TestParseIntValueMatchesTwoPass pins the one-pass integer scan to the
// two-pass one it replaced: the same value, the same error message
// (offsets included) and the same end position for every literal.
func TestParseIntValueMatchesTwoPass(t *testing.T) {
	lits := []string{
		"0", "-0", "7", "-7", "1073741824", "01", "-01", "00", "-", "--1", "+1", "",
		"1.", "1.5", "-1.5", "1.5e3", "1e", "1e+", "1e5", "1E-2", "1.e3", ".5",
		"9223372036854775807", "-9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "9223372036854775806", "9223372036854775809",
		"922337203685477580", "92233720368547758070", "99999999999999999999", "99999999999999999999.5",
		"99999999999999999999x", "12x", "12 ", "12,", "12]", "12}", "1 ,2", "0x10",
	}
	for _, lit := range lits {
		var one, two jparser
		one.init([]byte(lit))
		two.init([]byte(lit))
		v1, err1 := one.parseIntValue()
		v2, err2 := two.parseIntTwoPass()
		if v1 != v2 || fmt.Sprint(err1) != fmt.Sprint(err2) || (err1 == nil && one.pos != two.pos) {
			t.Errorf("%q: one pass (%d, %v) at %d, two pass (%d, %v) at %d",
				lit, v1, err1, one.pos, v2, err2, two.pos)
		}
	}
}

// checkWireParserMatches decodes body with encoding/json and with the
// pooled parser and fails t unless they agree on accept/reject and on every
// decoded field.
func checkWireParserMatches(t *testing.T, body string) {
	// Old path.
	var oldReq DetectRequest
	oldErr := decodeJSON(httptest.NewRequest("POST", "/v1/detect", strings.NewReader(body)), &oldReq)
	var oldRoutes any
	if oldErr == nil {
		routes, rerr := decodeRoutes(oldReq.Routes)
		if rerr != nil {
			oldErr = rerr
		} else {
			oldRoutes = routes
		}
	}
	// New path.
	sc := getScratch()
	defer putScratch(sc)
	sc.body = append(sc.body[:0], body...)
	newErr := sc.parseRequest(kindDetect)
	if (oldErr == nil) != (newErr == nil) {
		t.Fatalf("body %q: old err %v, new err %v", body, oldErr, newErr)
	}
	if oldErr != nil {
		return
	}
	sc.materializeRoutes()
	if got, want := string(sc.profile), oldReq.Profile; got != want {
		t.Errorf("body %q: profile %q, want %q", body, got, want)
	}
	oldUpdate := oldReq.Update == nil || *oldReq.Update
	if got := sc.requestUpdate(); got != oldUpdate {
		t.Errorf("body %q: update %v, want %v", body, got, oldUpdate)
	}
	if got := sc.explain; got != oldReq.Explain {
		t.Errorf("body %q: explain %v, want %v", body, got, oldReq.Explain)
	}
	if oldRoutes != nil {
		want := fmt.Sprint(oldRoutes)
		if got := fmt.Sprint(sc.routes); got != want {
			t.Errorf("body %q: routes %s, want %s", body, got, want)
		}
	}
}

// TestDetectBatchPartialFailure pins the repaired batch contract: items that
// scored are returned (they already updated the adaptive profile) alongside
// per-item errors for the ones that failed, under 207 instead of discarding
// completed work behind a single error status.
func TestDetectBatchPartialFailure(t *testing.T) {
	ts, svc := newTrainedServer(t, Config{})

	t.Run("all-fail-untrained", func(t *testing.T) {
		// An existing but untrained profile: every item fails the same way.
		// (Train with only empty route sets so the entry exists without runs.)
		resp, err := http.Post(ts.URL+"/v1/profiles/untrained/train", "application/json",
			strings.NewReader(`{"route_sets":[[]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed train: %s", resp.Status)
		}
		resp, err = http.Post(ts.URL+"/v1/detect/batch", "application/json",
			strings.NewReader(`{"profile":"untrained","items":[[[0,1,2]],[[0,3,2]]]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMultiStatus {
			t.Fatalf("status = %d, want 207", resp.StatusCode)
		}
		var br BatchDetectResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		if len(br.Verdicts) != 2 || len(br.Errors) != 2 {
			t.Fatalf("got %d verdicts / %d errors, want 2/2", len(br.Verdicts), len(br.Errors))
		}
		for i, e := range br.Errors {
			if !strings.Contains(e, "no training runs") {
				t.Errorf("errors[%d] = %q, want untrained error", i, e)
			}
		}
	})

	t.Run("all-ok-is-200-no-errors", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/detect/batch", "application/json",
			strings.NewReader(`{"profile":"test","items":[[[0,1,2]],[[0,3,2]]]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		blob, _ := io.ReadAll(resp.Body)
		if bytes.Contains(blob, []byte(`"errors"`)) {
			t.Fatalf("all-ok response carries errors key: %s", blob)
		}
		var br BatchDetectResponse
		if err := json.Unmarshal(blob, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Verdicts) != 2 || br.Errors != nil {
			t.Fatalf("got %d verdicts, errors %v", len(br.Verdicts), br.Errors)
		}
	})

	t.Run("mixed-observes-only-returned", func(t *testing.T) {
		// The store can't produce per-item divergence today (score has one
		// error mode and it hits every item), so the mixed case exercises
		// finishBatch directly: two scored items, one failed slot.
		sc := getScratch()
		defer putScratch(sc)
		sc.profile = append(sc.profile[:0], "test"...)
		sc.verdicts = growSlice(sc.verdicts, 3)
		sc.itemErrs = growSlice(sc.itemErrs, 3)
		e, err := svc.store.get("test")
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2} {
			routes, _ := decodeRoutes([][]int{{0, 1, 2}, {0, 3, 2}})
			v, err := e.score(sam.Analyze(routes), true)
			if err != nil {
				t.Fatal(err)
			}
			sc.verdicts[i] = v
		}
		sc.itemErrs[1] = errUntrained

		before := svc.decisions.Recorded()
		status := svc.finishBatch(sc, "test")
		if status != http.StatusMultiStatus {
			t.Fatalf("status = %d, want 207", status)
		}
		if got := svc.decisions.Recorded() - before; got != 2 {
			t.Errorf("observed %d verdicts, want 2 (failed slot must not be observed)", got)
		}
		var br BatchDetectResponse
		if err := json.Unmarshal(sc.out, &br); err != nil {
			t.Fatalf("response %s: %v", sc.out, err)
		}
		if len(br.Verdicts) != 3 || len(br.Errors) != 3 {
			t.Fatalf("got %d verdicts / %d errors, want 3/3", len(br.Verdicts), len(br.Errors))
		}
		if br.Errors[0] != "" || br.Errors[2] != "" || br.Errors[1] == "" {
			t.Errorf("errors = %q, want failure only at slot 1", br.Errors)
		}
		if br.Verdicts[0].Decision == "" || br.Verdicts[2].Decision == "" {
			t.Errorf("scored slots lost their verdicts: %+v", br.Verdicts)
		}
	})
}

// TestDetectBatchUpdatesInItemOrder: a batch with updates on applies them
// in item order whatever the pool's scheduling, so its verdicts equal those
// of the same items posted one by one to /v1/detect on an identical
// profile.
func TestDetectBatchUpdatesInItemOrder(t *testing.T) {
	items := append(genSets(8, false, 9000), genSets(8, true, 9500)...)
	for round := 0; round < 5; round++ {
		batchTS, _ := newTrainedServer(t, Config{Workers: 4})
		singleTS, _ := newTrainedServer(t, Config{Workers: 4})
		resp, blob := postJSON(t, batchTS.URL+"/v1/detect/batch", mustJSON(t, BatchDetectRequest{Profile: "test", Items: items}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d: %s", resp.StatusCode, blob)
		}
		var br BatchDetectResponse
		if err := json.Unmarshal(blob, &br); err != nil {
			t.Fatal(err)
		}
		for i, set := range items {
			_, one := postJSON(t, singleTS.URL+"/v1/detect", mustJSON(t, DetectRequest{Profile: "test", Routes: set}))
			var dr DetectResponse
			if err := json.Unmarshal(one, &dr); err != nil {
				t.Fatal(err)
			}
			if br.Verdicts[i] != dr.Verdict {
				t.Fatalf("round %d item %d: batch verdict %+v, one by one %+v", round, i, br.Verdicts[i], dr.Verdict)
			}
		}
	}
}

// TestDetectStream drives the NDJSON pipeline end to end over a real
// connection: responses arrive in request order, per-line failures don't
// kill the stream, and a lockstep client (read-after-every-write) never
// stalls on an unflushed response.
func TestDetectStream(t *testing.T) {
	ts, _ := newTrainedServer(t, Config{})

	t.Run("lockstep", func(t *testing.T) {
		pr, pw := io.Pipe()
		req, err := http.NewRequest("POST", ts.URL+"/v1/detect/stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content-type = %q", ct)
		}
		lines := []struct {
			in      string
			wantErr string
		}{
			{`{"profile":"test","routes":[[0,1,2],[0,3,2]]}`, ""},
			{`{"profile":"missing","routes":[[0,1,2]]}`, "unknown profile"},
			{`{"profile":"test","routes":[[0,`, "invalid JSON body"}, // malformed line: report, continue
			{`{"profile":"test","routes":[[0,4,2]],"update":false}`, ""},
			{`{"profile":"test","routes":[[0,1,2]],"explain":true}`, ""},
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for i, l := range lines {
			if _, err := io.WriteString(pw, l.in+"\n"); err != nil {
				t.Fatal(err)
			}
			if !sc.Scan() {
				t.Fatalf("line %d: stream ended early: %v", i, sc.Err())
			}
			var probe struct {
				Profile string          `json:"profile"`
				Verdict *VerdictJSON    `json:"verdict"`
				Explain json.RawMessage `json:"explain"`
				Error   string          `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("line %d: bad JSON %q: %v", i, sc.Bytes(), err)
			}
			if l.wantErr == "" {
				if probe.Error != "" || probe.Verdict == nil {
					t.Fatalf("line %d: got %s, want verdict", i, sc.Bytes())
				}
			} else if !strings.Contains(probe.Error, l.wantErr) {
				t.Fatalf("line %d: error %q, want %q", i, probe.Error, l.wantErr)
			}
			if i == 4 && len(probe.Explain) == 0 {
				t.Fatalf("explain line missing record: %s", sc.Bytes())
			}
		}
		pw.Close()
		if sc.Scan() {
			t.Fatalf("unexpected trailing line: %s", sc.Bytes())
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		const n = 500
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&buf, `{"profile":"test","routes":[[0,%d,2],[0,3,2]]}`+"\n", i%7)
		}
		buf.WriteString("\n\n") // blank lines are skipped
		resp, err := http.Post(ts.URL+"/v1/detect/stream", "application/x-ndjson", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		got := 0
		for sc.Scan() {
			var dr DetectResponse
			if err := json.Unmarshal(sc.Bytes(), &dr); err != nil || dr.Profile != "test" {
				t.Fatalf("line %d: %q err %v", got, sc.Bytes(), err)
			}
			got++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("got %d response lines, want %d", got, n)
		}
	})

	t.Run("oversized-line-skipped", func(t *testing.T) {
		// An over-limit line is discarded up to its newline and answered
		// with an error line; the stream then continues, so the following
		// line still gets its own (here: unknown-profile) answer. The
		// service is untrained on purpose — only the per-line limit
		// (MaxBodyBytes) and realignment are under test.
		svc2 := New(Config{MaxBodyBytes: 256})
		small := httptest.NewServer(svc2.Handler())
		t.Cleanup(func() {
			small.Close()
			svc2.Close()
		})
		long := `{"profile":"test","routes":[[` + strings.Repeat("1,", 400) + `1]]}`
		body := long + "\n" + `{"profile":"test","routes":[[0,1,2]]}` + "\n"
		resp, err := http.Post(small.URL+"/v1/detect/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("got %d lines, want 2 (oversized error + next answer): %s", len(lines), blob)
		}
		var er ErrorResponse
		if err := json.Unmarshal(lines[0], &er); err != nil || !strings.Contains(er.Error, "size limit") {
			t.Fatalf("line 0 = %s (err %v), want size-limit error", lines[0], err)
		}
		if err := json.Unmarshal(lines[1], &er); err != nil || !strings.Contains(er.Error, "unknown profile") {
			t.Fatalf("line 1 = %s (err %v), want unknown-profile error", lines[1], err)
		}
	})
}

// TestLineReaderLimitWithLargeBuffer pins that the per-line limit holds even
// when the pooled buffer is larger than the limit — a complete over-limit
// line arriving in one read must still answer errBodyTooLarge, with the
// reader aligned on the next line (regression: the limit was only enforced
// at refill time, so a big enough recycled buffer bypassed it).
func TestLineReaderLimitWithLargeBuffer(t *testing.T) {
	long := strings.Repeat("x", 1024)
	t.Run("terminated", func(t *testing.T) {
		lr := lineReader{
			r:     strings.NewReader(long + "\nnext\n"),
			buf:   make([]byte, 0, 1<<16), // recycled scratch, cap >> limit
			limit: 256,
		}
		if _, err := lr.next(); err != errBodyTooLarge {
			t.Fatalf("over-limit line: err = %v, want errBodyTooLarge", err)
		}
		line, err := lr.next()
		if err != nil || string(line) != "next" {
			t.Fatalf("after over-limit line: %q, %v, want \"next\"", line, err)
		}
		if _, err := lr.next(); err != io.EOF {
			t.Fatalf("end of stream: err = %v, want EOF", err)
		}
	})
	t.Run("unterminated-trailing", func(t *testing.T) {
		lr := lineReader{
			r:     strings.NewReader(long), // no newline, fits in one read
			buf:   make([]byte, 0, 1<<16),
			limit: 256,
		}
		if _, err := lr.next(); err != errBodyTooLarge {
			t.Fatalf("trailing over-limit line: err = %v, want errBodyTooLarge", err)
		}
	})
}
