package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// treeProgram is the paper's §3.3 example (testdata/section33.c): S and T
// are provably independent under the leaf-linked binary tree axioms.
func treeProgram(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/section33.c")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// listProgram is Figure 1's list-update loop: a second axiom set, so tests
// can populate more than one engine.
func listProgram(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/figure1.c")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// newMetered builds a server reporting into a registry of its own, the
// one place its counts and gauges are read from.
func newMetered(cfg Config) *Server {
	cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), nil)
	return New(cfg)
}

// metrics snapshots the server's registry.
func metrics(srv *Server) telemetry.Snapshot { return srv.tel.Metrics().Snapshot() }

func postBatch(t *testing.T, url string, req wire.BatchRequest) (*http.Response, *wire.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		return resp, &wire.BatchResponse{Stats: wire.BatchStats{AxiomSet: e.Error}}
	}
	var br wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, &br
}

func TestBatchRoundTripWarmsCaches(t *testing.T) {
	srv := New(Config{Workers: 2, Telemetry: telemetry.New(telemetry.NewRegistry(), nil)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T", "# comment", "between S T"}}
	resp, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	if len(br.Results) == 0 {
		t.Fatal("no results")
	}
	for i, r := range br.Results {
		if r.Result != "No" {
			t.Errorf("results[%d] = %q (%s), want No", i, r.Result, r.Reason)
		}
		if r.Query != "between S T" {
			t.Errorf("results[%d].Query = %q", i, r.Query)
		}
	}
	if br.Dependent {
		t.Error("Dependent = true for a provably independent pair")
	}

	// The same request again must ride the warm caches: the proof memo
	// serves the repeat without a single fresh search.
	m0 := metrics(srv).Counters
	_, br2 := postBatch(t, ts.URL, req)
	m := metrics(srv).Counters
	if hits := m["engine.memo_hits"] - m0["engine.memo_hits"]; hits == 0 {
		t.Error("second request hit the proof memo 0 times")
	}
	if misses := m["engine.memo_misses"] - m0["engine.memo_misses"]; misses != 0 {
		t.Errorf("second request searched %d proofs, want 0", misses)
	}
	if br2.Stats.ElapsedUS > br.Stats.ElapsedUS*10 {
		t.Errorf("warm request took %dus vs cold %dus", br2.Stats.ElapsedUS, br.Stats.ElapsedUS)
	}
}

func TestBatchRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":    {body: "between S T", want: http.StatusBadRequest},
		"no queries":  {body: `{"program":"void f() {}"}`, want: http.StatusBadRequest},
		"bad program": {body: `{"program":"int main(","queries":["between S T"]}`, want: http.StatusBadRequest},
		"bad line":    {body: `{"program":"void f() { int x; x = 1; }","queries":["frobnicate S T"]}`, want: http.StatusBadRequest},
		"bad label":   {body: `{"program":"void f() { int x; x = 1; }","queries":["between S T"]}`, want: http.StatusBadRequest},
		"two fns no fn": {body: `{"program":"void f() { int x; x = 1; } void g() { int y; y = 2; }","queries":["between S T"]}`,
			want: http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", name, resp.StatusCode, tc.want, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch = %d, want 405", resp.StatusCode)
	}
}

// TestVerifyRequiresVerifyingServer: a request asking for verification is
// refused with 400 by a server that does not verify, in both request
// modes, and answered as usual by one that does.
func TestVerifyRequiresVerifyingServer(t *testing.T) {
	program := wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"}, Verify: true}
	raw := rawTreeRequest()
	raw.Verify = true

	plain := httptest.NewServer(New(Config{}))
	defer plain.Close()
	for name, req := range map[string]wire.BatchRequest{"program": program, "raw": raw} {
		resp, br := postBatch(t, plain.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s mode: status = %d, want 400 from a server without -verify", name, resp.StatusCode)
		} else if !strings.Contains(br.Stats.AxiomSet, "verify") {
			t.Errorf("%s mode: error = %q, want it to name verify", name, br.Stats.AxiomSet)
		}
	}

	verifying := httptest.NewServer(New(Config{VerifyProofs: true}))
	defer verifying.Close()
	for name, req := range map[string]wire.BatchRequest{"program": program, "raw": raw} {
		resp, br := postBatch(t, verifying.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s mode: status = %d (%s), want 200 from a verifying server", name, resp.StatusCode, br.Stats.AxiomSet)
		}
		for i, r := range br.Results {
			if r.Result != "No" {
				t.Errorf("%s mode: results[%d] = %q (%s), want No", name, i, r.Result, r.Reason)
			}
		}
	}
}

// TestBodyCapAnswers413: a body over the cap answers 413 naming the cap,
// like the query-count cap on the same requests; a malformed body under the
// cap stays a 400.
func TestBodyCapAnswers413(t *testing.T) {
	const cap = 256
	ts := httptest.NewServer(New(Config{MaxBodyBytes: cap}))
	defer ts.Close()

	pad := `{"program":"` + strings.Repeat(" ", 2*cap) + `","queries":["between S T"]}`
	for _, tc := range []struct {
		name, body string
		want       int
		msg        string
	}{
		{"batch over cap", pad, http.StatusRequestEntityTooLarge, "limit of 256 bytes"},
		{"batch malformed", "between S T", http.StatusBadRequest, "bad request body"},
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != tc.want || !strings.Contains(e.Error, tc.msg) {
			t.Errorf("%s: %d %q, want %d mentioning %q", tc.name, resp.StatusCode, e.Error, tc.want, tc.msg)
		}
	}
}

// TestAdmissionShedding: with every run slot and queue position occupied,
// the next request is shed with 429 + Retry-After instead of queueing;
// when the jam clears, the queued requests are all answered.
func TestAdmissionShedding(t *testing.T) {
	srv := newMetered(Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only run slot so admitted requests park in the queue.
	srv.adm.Run() <- struct{}{}

	req := wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"}}
	body, _ := json.Marshal(req)
	type result struct {
		code int
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			resp.Body.Close()
			results <- result{code: resp.StatusCode}
		}()
	}
	// Wait until both requests hold admission tokens (slots cap = 2).
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.adm.Slots()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never filled the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer ≥ 1 second", ra)
	}
	if shed := metrics(srv).Counters["serve.shed"]; shed != 1 {
		t.Errorf("serve.shed = %d, want 1", shed)
	}

	// Unjam: both queued requests must complete normally.
	<-srv.adm.Run()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil || r.code != http.StatusOK {
			t.Errorf("queued request: code=%d err=%v, want 200", r.code, r.err)
		}
	}
}

// TestDrainFinishesInflight: requests admitted before the drain are
// answered; requests arriving during it get 503, and healthz flips.
func TestDrainFinishesInflight(t *testing.T) {
	srv := newMetered(Config{MaxConcurrent: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.adm.Run() <- struct{}{} // park admitted requests in the queue

	req := wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"}}
	body, _ := json.Marshal(req)
	const parked = 3
	codes := make(chan int, parked)
	for i := 0; i < parked; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.Gauge().Load() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", srv.adm.Gauge().Load(), parked)
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining...
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain = %d, want 503", resp.StatusCode)
	}
	if hz, err := http.Get(ts.URL + "/healthz"); err == nil {
		hz.Body.Close()
		if hz.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz during drain = %d, want 503", hz.StatusCode)
		}
	} else {
		t.Fatal(err)
	}

	// ...but every parked request completes, and the drain observes that.
	<-srv.adm.Run()
	for i := 0; i < parked; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("parked request answered %d, want 200 (in-flight work must not be dropped)", code)
		}
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
	m := metrics(srv)
	accepted, completed, inflight := m.Counters["serve.requests"], m.Counters["serve.completed"], m.Gauges["serve.inflight"]
	if accepted != completed || inflight != 0 || m.Counters["serve.refused_draining"] != 1 {
		t.Errorf("after drain: accepted=%d completed=%d inflight=%d refused=%d, want accepted==completed, 0 in flight, 1 refused",
			accepted, completed, inflight, m.Counters["serve.refused_draining"])
	}
}

// TestPanicBecomes500: a worker panic surfacing through the handler is one
// failed request, not a dead server.
func TestPanicBecomes500(t *testing.T) {
	srv := newMetered(Config{})
	srv.mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic(&parallel.WorkerPanic{Value: "kaboom", Stack: []byte("stack")})
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "kaboom") {
		t.Errorf("error = %q, want the worker panic value", e.Error)
	}
	if panics := metrics(srv).Counters["serve.panics"]; panics != 1 {
		t.Errorf("serve.panics = %d, want 1", panics)
	}

	// The server still serves.
	if hz, err := http.Get(ts.URL + "/healthz"); err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v / %v", hz, err)
	} else {
		hz.Body.Close()
	}
}

func TestMetricsAndStatzEndpoints(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	srv := New(Config{Telemetry: tel})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, br := postBatch(t, ts.URL, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	}); len(br.Results) == 0 {
		t.Fatal("no results")
	}

	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics.json decode: %v", err)
	}
	resp.Body.Close()
	for _, want := range []string{"serve.requests", "serve.completed", "engine.queries", "automata.shared_lookups"} {
		if snap.Counters[want] == 0 {
			t.Errorf("metrics counter %q = 0, want > 0 (have %d counters)", want, len(snap.Counters))
		}
	}
	for _, want := range []string{"serve.dfa_entries", "serve.memo_entries", "serve.interned_exprs"} {
		if snap.Gauges[want] == 0 {
			t.Errorf("metrics gauge %q = 0, want > 0 (have %v)", want, snap.Gauges)
		}
	}

	// The registry is the only read surface: /statz is not served.
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/statz = %d, want 404", resp.StatusCode)
	}
}

// TestRequestScaleDeadline: a request-level deadline yields a well-formed
// 200 whose every query is answered (possibly Maybe), never a hung or
// dropped response.
func TestRequestScaleDeadline(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var queries []string
	for i := 0; i < 16; i++ {
		queries = append(queries, "between S T")
	}
	resp, br := postBatch(t, ts.URL, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: queries,
		DeadlineMS: 1, TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(br.Results) == 0 || len(br.Results)%16 != 0 {
		t.Fatalf("got %d results for 16 identical query lines", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Result != "No" && r.Result != "Maybe" {
			t.Errorf("results[%d] = %q, want No or the sound degradation Maybe", i, r.Result)
		}
	}
}

// TestRetryAfterScalesWithBacklog is the regression test for the constant
// Retry-After: the hint must be backlog ÷ recent completion rate, so a
// deeper jam at the same drain rate tells clients to wait longer, a faster-
// draining server tells them to come back sooner, the floor (1s) and
// ceiling (60s) clamp the extremes, and the rate stays exact past any
// sample count.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	mk := func(depth, backlog, completions int) *admit.Controller {
		srv := New(Config{MaxConcurrent: 1, QueueDepth: depth})
		for i := 0; i < backlog; i++ {
			srv.adm.Slots() <- struct{}{}
		}
		for i := 0; i < completions; i++ {
			if !srv.adm.Begin() {
				t.Fatal("Begin refused on a server that is not draining")
			}
			srv.adm.Finish()
		}
		return srv.adm
	}

	// No backlog, or no completions to extrapolate a rate from: the floor.
	if got := mk(10, 0, 50).RetryAfterSeconds(); got != 1 {
		t.Errorf("empty backlog: Retry-After = %d, want the 1s floor", got)
	}
	if got := mk(10, 5, 0).RetryAfterSeconds(); got != 1 {
		t.Errorf("no recent completions: Retry-After = %d, want the 1s floor", got)
	}

	// 20 completions in the 10s window = 2/s; a backlog of 10 should drain
	// in ~5s.
	if got := mk(20, 10, 20).RetryAfterSeconds(); got != 5 {
		t.Errorf("backlog 10 at 2/s: Retry-After = %d, want 5", got)
	}

	// Scaling in backlog at a fixed rate: strictly monotone until the clamp.
	prev := 0
	for _, backlog := range []int{2, 8, 20, 40} {
		got := mk(50, backlog, 20).RetryAfterSeconds()
		if got <= prev {
			t.Errorf("backlog %d: Retry-After = %d, want > %d (must grow with backlog)", backlog, got, prev)
		}
		prev = got
	}

	// Scaling in drain rate at a fixed backlog: more completions, sooner retry.
	slow := mk(50, 40, 10).RetryAfterSeconds()
	fast := mk(50, 40, 100).RetryAfterSeconds()
	if fast >= slow {
		t.Errorf("faster drain must shorten the hint: %ds at 10 completions vs %ds at 100", slow, fast)
	}

	// A glacial drain rate clamps at the 60s ceiling rather than announcing
	// a multi-minute outage.
	if got := mk(200, 200, 1).RetryAfterSeconds(); got != 60 {
		t.Errorf("glacial drain: Retry-After = %d, want the 60s ceiling", got)
	}

	// 8,192 completions in the window = 819.2/s; a backlog of 2,000 drains
	// in ~2.44s.  A count that stopped at 4,096 would answer 5.
	if got := mk(2000, 2000, 8192).RetryAfterSeconds(); got != 3 {
		t.Errorf("backlog 2000 after 8192 completions: Retry-After = %d, want 3", got)
	}
}

// TestBatchRejectsNULInProgram: a NUL byte in the program is a parse error
// at its position, not an end of input that hides the rest of the program
// from the analysis and answers for the part before it.
func TestBatchRejectsNULInProgram(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	prog := treeProgram(t)
	lines := strings.Count(prog, "\n")
	req := wire.BatchRequest{
		Program: prog + "\x00 int hidden(struct LLBinaryTree *p) { p->d = 1; }",
		Fn:      "subr",
		Queries: []string{"between S T"},
	}
	resp, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d with %d results, want 400", resp.StatusCode, len(br.Results))
	}
	want := "program: " + strconv.Itoa(lines+1) + `:1: unexpected character "\x00"`
	if got := br.Stats.AxiomSet; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
}
