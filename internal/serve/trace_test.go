package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// postBatchTraced posts one batch with a client traceparent and returns the
// response, decoded body, and the traceparent header the server answered
// with.
func postBatchTraced(t *testing.T, url, traceparent string, req wire.BatchRequest) (*http.Response, *wire.BatchResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br wire.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp, &br, resp.Header.Get("traceparent")
}

// TestTraceparentRoundTrip is the tentpole's correlation check: a request
// carrying a W3C traceparent joins that trace, answers with its own root
// span under the caller's span, and the flight recorder retains a span
// tree — serve admission, analysis, the engine batch, its workers, and the
// prover's per-query spans — that parents correctly all the way down.
func TestTraceparentRoundTrip(t *testing.T) {
	const client = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, br, echoed := postBatchTraced(t, ts.URL, client, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// The response header continues the client's trace under a fresh span.
	tc, ok := telemetry.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echoed)
	}
	if got := tc.TraceID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("response trace id = %s, want the client's", got)
	}
	if tc.SpanID.String() == "b7ad6b7169203331" {
		t.Error("response span id echoes the client's span; want the server's root span")
	}
	if br.Stats.TraceID != tc.TraceID.String() {
		t.Errorf("stats.trace_id = %q, want %q", br.Stats.TraceID, tc.TraceID.String())
	}

	// The first request is by definition among the K slowest, so the
	// recorder has its span tree.
	snap := srv.FlightSnapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("flight recorder holds %d slow records, want 1", len(snap.Slowest))
	}
	rec := snap.Slowest[0]
	if rec.TraceID != tc.TraceID.String() {
		t.Errorf("flight record trace id = %q, want %q", rec.TraceID, tc.TraceID.String())
	}
	if rec.Traceparent != echoed {
		t.Errorf("flight record traceparent = %q, want %q", rec.Traceparent, echoed)
	}

	byID := map[string]telemetry.SpanRecord{}
	byName := map[string][]telemetry.SpanRecord{}
	for _, sp := range rec.Spans {
		byID[sp.ID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, want := range []string{"serve.request", "serve.admission", "serve.analyze", "serve.batch", "engine.worker", "prover.prove"} {
		if len(byName[want]) == 0 {
			t.Fatalf("span %q missing from tree (have %d spans)", want, len(rec.Spans))
		}
	}
	root := byName["serve.request"][0]
	if root.Parent != "b7ad6b7169203331" {
		t.Errorf("root span parent = %q, want the client's span id", root.Parent)
	}
	if root.ID != tc.SpanID.String() {
		t.Errorf("root span id = %s, but the response header says %s", root.ID, tc.SpanID.String())
	}
	for _, name := range []string{"serve.admission", "serve.analyze", "serve.batch"} {
		for _, sp := range byName[name] {
			if sp.Parent != root.ID {
				t.Errorf("%s parented under %q, want the root span %q", name, sp.Parent, root.ID)
			}
		}
	}
	batch := byName["serve.batch"][0]
	for _, sp := range byName["engine.worker"] {
		if sp.Parent != batch.ID {
			t.Errorf("engine.worker parented under %q, want serve.batch %q", sp.Parent, batch.ID)
		}
	}
	workers := map[string]bool{}
	for _, sp := range byName["engine.worker"] {
		workers[sp.ID] = true
	}
	for _, sp := range byName["prover.prove"] {
		if !workers[sp.Parent] {
			t.Errorf("prover.prove parented under %q, not any engine.worker span", sp.Parent)
		}
	}

	// A headerless (or malformed) request gets a freshly minted trace.
	_, _, minted := postBatchTraced(t, ts.URL, "garbage", wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	})
	mtc, ok := telemetry.ParseTraceparent(minted)
	if !ok {
		t.Fatalf("minted traceparent %q does not parse", minted)
	}
	if mtc.TraceID == tc.TraceID {
		t.Error("fresh request reused the previous trace id")
	}
}

// TestMetricsPrometheusExposition: /metrics is the registry rendered and
// nothing else — it parses under the strict validator, carries the
// registry's instruments and the server's counters and gauges under the
// one apt_serve_ naming rule, and none of the series the hand-written
// writer used to add.
func TestMetricsPrometheusExposition(t *testing.T) {
	srv := newMetered(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, br := postBatch(t, ts.URL, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	}); len(br.Results) == 0 {
		t.Fatal("no results")
	}

	data := scrape(t, ts.URL)
	for _, want := range []string{
		"apt_serve_requests_total 1\n",
		"apt_serve_completed_total 1\n",
		"apt_serve_refused_draining_total 0\n",
		"apt_serve_degraded_requests_total 0\n",
		"apt_serve_flight_slow_recorded_total 1\n",
		"apt_serve_inflight 0\n",
		"apt_serve_interned_exprs ",
		"apt_serve_memo_entries ",
		"apt_serve_uptime_seconds ",
		"apt_engine_queries_total",
		"apt_engine_degraded_request_deadline_total 0\n",
		"apt_serve_request_ns_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, gone := range []string{"apt_server_", "apt_degraded_total", "apt_engine_set_", "apt_interned_exprs", "apt_flight_", "_window"} {
		if strings.Contains(string(data), gone) {
			t.Errorf("/metrics still carries %q", gone)
		}
	}

	// Telemetry disabled: no registry, nothing to render.
	ts2 := httptest.NewServer(New(Config{}))
	defer ts2.Close()
	if data2 := scrape(t, ts2.URL); len(data2) != 0 {
		t.Errorf("nil-telemetry /metrics = %q, want empty", data2)
	}
}

// scrape fetches /metrics and fails the test unless it is valid exposition.
func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheus(data); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, data)
	}
	return data
}

// counterSeries returns every counter-typed sample of an exposition, keyed
// by the sample line's name and label set.
func counterSeries(t *testing.T, data []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	counters := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			counters[f[2]] = f[3] == "counter"
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		series := line[:i]
		name, _, _ := strings.Cut(series, "{")
		if !counters[name] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestMetricsCountersNeverGoBackwards: a counter series, once exposed,
// stays exposed and never decreases — even when the next request switches
// axiom sets.  A batch degraded on its deadline, a scrape, then a request
// over a second axiom set, then a second scrape.
func TestMetricsCountersNeverGoBackwards(t *testing.T) {
	lines := make([]string, 4000)
	for i := range lines {
		lines[i] = "between S T"
	}
	degrading := wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: lines, DeadlineMS: 1}
	for attempt := 0; attempt < 25; attempt++ {
		srv := newMetered(Config{Workers: 2})
		ts := httptest.NewServer(srv)
		_, br := postBatch(t, ts.URL, degrading)
		if br.Stats.DegradedQueries == 0 {
			ts.Close()
			continue // the search beat the deadline; try again cold
		}
		before := counterSeries(t, scrape(t, ts.URL))
		postBatch(t, ts.URL, wire.BatchRequest{Program: listProgram(t), Fn: "update", Queries: []string{"loop U"}})
		after := counterSeries(t, scrape(t, ts.URL))
		ts.Close()
		if before["apt_engine_degraded_request_deadline_total"] == 0 {
			t.Error("the degraded batch left apt_engine_degraded_request_deadline_total at 0")
		}
		for series, v := range before {
			got, ok := after[series]
			if !ok {
				t.Errorf("counter %s vanished after the axiom-set switch (was %v)", series, v)
			} else if got < v {
				t.Errorf("counter %s went backwards: %v -> %v", series, v, got)
			}
		}
		return
	}
	t.Skip("deadline never expired in 25 cold attempts; machine too fast for a timing-based check")
}

// syncBuffer lets the test read the access log while the server may still
// be writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogJSONL: every HTTP request — batch, metrics scrape, bad
// method — produces one structured JSONL line with method, path, status,
// and the response traceparent.
func TestAccessLogJSONL(t *testing.T) {
	var buf syncBuffer
	srv := New(Config{AccessLog: telemetry.NewTraceWriter(&buf)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, br := postBatch(t, ts.URL, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	}); len(br.Results) == 0 {
		t.Fatal("no results")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/batch"); err != nil { // wrong method
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	type line struct {
		Ev          string `json:"ev"`
		Method      string `json:"method"`
		Path        string `json:"path"`
		Status      int    `json:"status"`
		Bytes       int64  `json:"bytes"`
		DurUS       int64  `json:"dur_us"`
		Traceparent string `json:"traceparent"`
	}
	var lines []line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("access log line %q: %v", raw, err)
		}
		if l.Ev != "http_access" {
			t.Errorf("line event = %q, want http_access", l.Ev)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if l := lines[0]; l.Method != "POST" || l.Path != "/v1/batch" || l.Status != 200 || l.Bytes == 0 {
		t.Errorf("batch line = %+v", l)
	}
	if _, ok := telemetry.ParseTraceparent(lines[0].Traceparent); !ok {
		t.Errorf("batch line traceparent %q does not parse", lines[0].Traceparent)
	}
	if l := lines[1]; l.Method != "GET" || l.Path != "/healthz" || l.Status != 200 {
		t.Errorf("healthz line = %+v", l)
	}
	if l := lines[2]; l.Status != http.StatusMethodNotAllowed {
		t.Errorf("bad-method line = %+v, want 405", l)
	}
}

// TestDegradedRequestCaptured: a request whose deadline expires mid-batch
// is degraded toward Maybe, counted as a degraded request, and retained by
// the flight recorder with its per-reason profile.  A 1ms deadline against
// a cold proof search plus 4000 repeat queries (each a memo lookup, ~µs
// apiece) expires mid-batch with a wide margin, but the loop still
// tolerates an absurdly fast machine by retrying on fresh servers.
func TestDegradedRequestCaptured(t *testing.T) {
	lines := make([]string, 4000)
	for i := range lines {
		lines[i] = "between S T"
	}
	req := wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr",
		Queries:    lines,
		DeadlineMS: 1,
	}
	for attempt := 0; attempt < 25; attempt++ {
		srv := newMetered(Config{Workers: 2})
		ts := httptest.NewServer(srv)
		resp, br := postBatch(t, ts.URL, req)
		snap := srv.FlightSnapshot()
		m := metrics(srv)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if br.Stats.DegradedQueries == 0 {
			continue // the search beat the deadline; try again cold
		}
		// Degraded: all the books must agree.
		if br.Stats.DeadlineExpired == 0 {
			t.Errorf("degraded_queries = %d but deadline_expired = 0: %+v",
				br.Stats.DegradedQueries, br.Stats)
		}
		if got := m.Counters["serve.degraded_requests"]; got != 1 {
			t.Errorf("serve.degraded_requests = %d, want 1", got)
		}
		if got := m.Counters["engine.degraded.request_deadline"]; got != br.Stats.DeadlineExpired {
			t.Errorf("engine.degraded.request_deadline = %d, response says %d", got, br.Stats.DeadlineExpired)
		}
		if snap.DegradedRecorded != 1 || len(snap.Degraded) != 1 {
			t.Fatalf("flight recorder degraded: recorded %d, held %d, want 1/1",
				snap.DegradedRecorded, len(snap.Degraded))
		}
		rec := snap.Degraded[0]
		if rec.DegradedRequestDeadline != br.Stats.DeadlineExpired {
			t.Errorf("record deadline count = %d, response says %d",
				rec.DegradedRequestDeadline, br.Stats.DeadlineExpired)
		}
		if !rec.Degraded() || len(rec.Spans) == 0 || rec.TraceID == "" {
			t.Errorf("degraded record incomplete: %+v", rec)
		}
		return
	}
	t.Skip("deadline never expired in 25 cold attempts; machine too fast for a timing-based check")
}

// TestAnalysisSpanShowsWarmWidening: the analysis joins the request's span
// tree under serve.analyze, and because it borrows the pool's DFA cache, a
// second request over the same loop shape — the program text differs by a
// trailing newline, so the program table misses — decides the same
// widening checks without compiling a DFA.  The program's nested walks
// leave post-loop checks (L*.R.R* ⊆ R.R*) that only the DFA cache decides;
// a loop's usual X·δ*·δ ⊆ X·δ* is answered without it.  A third request,
// byte for byte the second, resolves through the program table: no
// analysis.analyze span, analyzed = 0 on serve.analyze, the same results.
func TestAnalysisSpanShowsWarmWidening(t *testing.T) {
	srv := New(Config{Workers: 1, FlightK: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	src, err := os.ReadFile("../../testdata/determinism/swap.c")
	if err != nil {
		t.Fatal(err)
	}
	cold := wire.BatchRequest{Program: string(src), Fn: "swap", Queries: []string{"loop D"}}
	warm := cold
	warm.Program += "\n"
	reqs := []wire.BatchRequest{cold, warm, warm}
	traces := []string{
		"00-0af7651916cd43dd8448eb211c803101-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c803102-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c803103-b7ad6b7169203331-01",
	}
	var results [][]wire.QueryResult
	for i, tp := range traces {
		resp, br, _ := postBatchTraced(t, ts.URL, tp, reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		results = append(results, br.Results)
	}
	spans := func(traceparent string) map[string]telemetry.SpanRecord {
		tc, _ := telemetry.ParseTraceparent(traceparent)
		for _, rec := range srv.FlightSnapshot().Slowest {
			if rec.TraceID != tc.TraceID.String() {
				continue
			}
			byName := map[string]telemetry.SpanRecord{}
			for _, sp := range rec.Spans {
				byName[sp.Name] = sp
			}
			return byName
		}
		t.Fatalf("no flight record for %s", traceparent)
		return nil
	}
	analyzed := func(traceparent string) map[string]any {
		byName := spans(traceparent)
		sp, ok := byName["analysis.analyze"]
		if !ok {
			t.Fatalf("trace %s has no analysis.analyze span", traceparent)
		}
		if parent, ok := byName["serve.analyze"]; !ok || sp.Parent != parent.ID {
			t.Errorf("analysis.analyze parent = %q, want the serve.analyze span %q", sp.Parent, parent.ID)
		} else if parent.Attrs["analyzed"] != int64(1) {
			t.Errorf("serve.analyze analyzed = %v on a miss, want 1", parent.Attrs["analyzed"])
		}
		return sp.Attrs
	}
	c, w := analyzed(traces[0]), analyzed(traces[1])
	if c["widen_checks"] == int64(0) || c["widen_checks"] != w["widen_checks"] {
		t.Errorf("widen_checks cold=%v warm=%v, want equal and nonzero", c["widen_checks"], w["widen_checks"])
	}
	if c["dfa_compiles"] == int64(0) || w["dfa_compiles"] != int64(0) {
		t.Errorf("dfa_compiles cold=%v warm=%v, want nonzero then 0", c["dfa_compiles"], w["dfa_compiles"])
	}

	hit := spans(traces[2])
	if _, ok := hit["analysis.analyze"]; ok {
		t.Error("a repeated request has an analysis.analyze span, want none")
	}
	if sp, ok := hit["serve.analyze"]; !ok || sp.Attrs["analyzed"] != int64(0) {
		t.Errorf("repeated request: serve.analyze analyzed = %v (span present %v), want 0", sp.Attrs["analyzed"], ok)
	}
	if !reflect.DeepEqual(results[2], results[1]) || !reflect.DeepEqual(results[1], results[0]) {
		t.Errorf("results differ:\ncold %+v\nwarm %+v\nhit  %+v", results[0], results[1], results[2])
	}
}
