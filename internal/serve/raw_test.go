package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/axiom"
	"repro/internal/exec"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// rawTreeRequest builds a raw-mode request over the paper's leaf-linked
// binary tree: left and right subtrees of one vertex are provably disjoint.
func rawTreeRequest() wire.BatchRequest {
	tree := axiom.LeafLinkedBinaryTree()
	return wire.BatchRequest{
		AxiomSet:     tree.Source(),
		AxiomSetName: tree.StructName,
		Raw: []wire.RawQuery{
			{SHandle: "h", SPath: "L", SField: "val", SWrite: true,
				THandle: "h", TPath: "R", TField: "val"},
			{SHandle: "h", SPath: "", SField: "val", SWrite: true,
				THandle: "k", TPath: "", TField: "val", Relation: "distinct"},
		},
	}
}

// TestRawBatchMode: raw-mode requests skip program analysis entirely — the
// axiom set travels as text, the queries fully specified — and answer with
// the same response shape program mode uses.  This is the wire mode routed
// cluster traffic rides.
func TestRawBatchMode(t *testing.T) {
	srv := New(Config{Workers: 2, Telemetry: telemetry.New(telemetry.NewRegistry(), nil)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, br := postBatch(t, ts.URL, rawTreeRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Result != "No" {
			t.Errorf("results[%d] = %q (%s), want No", i, r.Result, r.Reason)
		}
		if r.Line != i {
			t.Errorf("results[%d].Line = %d, want %d", i, r.Line, i)
		}
	}
	if br.Dependent {
		t.Error("Dependent = true for provably independent pairs")
	}

	// Same set again: the proof memo (keyed by the set's content, not by
	// how the request spelled it) must serve it.
	hits0 := metrics(srv).Counters["engine.memo_hits"]
	postBatch(t, ts.URL, rawTreeRequest())
	if hits := metrics(srv).Counters["engine.memo_hits"] - hits0; hits == 0 {
		t.Error("second raw request hit the proof memo 0 times")
	}
}

// TestRawBatchRejectsBadRequests: malformed raw requests answer 400 with a
// JSON error, and mixing modes is refused.
func TestRawBatchRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	tree := axiom.LeafLinkedBinaryTree()
	for name, req := range map[string]wire.BatchRequest{
		"mixed modes": {Program: "void f() { int x; x = 1; }", AxiomSet: tree.Source(),
			Raw: []wire.RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val"}}},
		"bad axiom set": {AxiomSet: "forall nonsense",
			Raw: []wire.RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val"}}},
		"bad path": {AxiomSet: tree.Source(),
			Raw: []wire.RawQuery{{SHandle: "h", SPath: "((", SField: "val", THandle: "h", TField: "val"}}},
		"bad relation": {AxiomSet: tree.Source(),
			Raw: []wire.RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val", Relation: "sideways"}}},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}
}

// TestBatchStatsTimeoutsPerRequest: stats.timeouts counts the request's own
// timed-out queries, like its neighbours degraded_queries and
// deadline_expired — not the engine's lifetime count, which would repeat
// an earlier request's timeout on every later request.
func TestBatchStatsTimeoutsPerRequest(t *testing.T) {
	srv := New(Config{Workers: 1, QueryTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The heavy pair's proof search runs well past the prover's interrupt
	// poll stride, so the 1ns per-query timeout is observed mid-search.
	heavy := rawTreeRequest()
	heavy.Raw = []wire.RawQuery{{
		SHandle: "h", SPath: "(L|R).(L|R).(L|R).N*", SField: "val", SWrite: true,
		THandle: "h", TPath: "(L|R).(L|R).(L|R).N+", TField: "val",
	}}
	_, br := postBatch(t, ts.URL, heavy)
	if len(br.Results) != 1 || br.Results[0].Result != "Maybe" {
		t.Fatalf("timed-out request answered %+v, want one Maybe", br.Results)
	}
	if br.Stats.Timeouts != 1 {
		t.Errorf("timed-out request: stats.timeouts = %d, want 1", br.Stats.Timeouts)
	}

	// Same axiom set, with a generous timeout.
	clean := rawTreeRequest()
	clean.TimeoutMS = 10_000
	_, br2 := postBatch(t, ts.URL, clean)
	if br2.Stats.Timeouts != 0 {
		t.Errorf("clean request after a timed-out one: stats.timeouts = %d, want 0", br2.Stats.Timeouts)
	}
}

// TestNoWarmStateEndpoints: a serving process takes no warm state over
// HTTP.  Neither a snapshot nor a preload endpoint answers, and bytes
// POSTed at the old preload path cannot turn the tree set's Maybe for
// h.(L|R)*->val against itself into an unsound No.
func TestNoWarmStateEndpoints(t *testing.T) {
	tree := axiom.LeafLinkedBinaryTree()
	req := wire.BatchRequest{
		AxiomSet:     tree.Source(),
		AxiomSetName: tree.StructName,
		Raw: []wire.RawQuery{{SHandle: "h", SPath: "(L|R)*", SField: "val", SWrite: true,
			THandle: "h", TPath: "(L|R)*", TField: "val"}},
	}
	ts := httptest.NewServer(New(Config{Workers: 1}))
	defer ts.Close()
	// Warm the tree set on other goals, so a snapshot would have state to serve.
	postBatch(t, ts.URL, rawTreeRequest())
	snap, err := http.Get(fmt.Sprintf("%s/v1/snapshot?fp=%016x", ts.URL, tree.Fingerprint64()))
	if err != nil {
		t.Fatal(err)
	}
	snap.Body.Close()
	if snap.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/snapshot = %d, want 404", snap.StatusCode)
	}
	pre, err := http.Post(ts.URL+"/v1/preload", "application/octet-stream", strings.NewReader("APTC"))
	if err != nil {
		t.Fatal(err)
	}
	pre.Body.Close()
	if pre.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/preload = %d, want 404", pre.StatusCode)
	}
	if _, br := postBatch(t, ts.URL, req); br.Results[0].Result != "Maybe" {
		t.Errorf("answer after the POST = %q (%s), want Maybe", br.Results[0].Result, br.Results[0].Reason)
	}
}

// postRaw POSTs a body to /v1/batch and returns the status, the body with
// its timing and trace fields blanked, and its trace id.
func postRaw(t *testing.T, url string, body []byte) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br wire.BatchResponse
	if err := wire.DecodeResponse(out, &br); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, volatileStats.ReplaceAllString(string(out), `"$1":0`), br.Stats.TraceID
}

// volatileStats matches the response fields that differ between two
// answers to one request: its timings and its trace id.
var volatileStats = regexp.MustCompile(`"(elapsed_us|service_us|trace_id)":("[^"]*"|\d+)`)

// TestRawTextTableByteIdentical: a server whose request table already
// holds a raw request answers it byte for byte as a fresh server does,
// apart from timings and trace id, and its serve.rawparse span reports
// that it parsed nothing.
func TestRawTextTableByteIdentical(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/wire/raw.request.json")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := json.Marshal(rawTreeRequest())
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{golden, tree}

	srv := New(Config{Workers: 1, FlightK: 8})
	warm := httptest.NewServer(srv)
	defer warm.Close()
	_, _, first := postRaw(t, warm.URL, bodies[0])
	postRaw(t, warm.URL, bodies[1])
	var warmTraces []string
	for i, b := range bodies {
		fresh := httptest.NewServer(New(Config{Workers: 1}))
		fcode, fbody, _ := postRaw(t, fresh.URL, b)
		fresh.Close()
		wcode, wbody, trace := postRaw(t, warm.URL, b)
		if fcode != http.StatusOK || wcode != fcode || wbody != fbody {
			t.Errorf("request %d: warm server answered %d %s\nfresh server answered %d %s", i, wcode, wbody, fcode, fbody)
		}
		warmTraces = append(warmTraces, trace)
	}

	parsed := map[string]any{}
	for _, rec := range srv.FlightSnapshot().Slowest {
		for _, sp := range rec.Spans {
			if sp.Name == "serve.rawparse" {
				parsed[rec.TraceID] = sp.Attrs["parsed"]
			}
		}
	}
	if len(parsed) != 2*len(bodies) {
		t.Fatalf("%d serve.rawparse spans recorded, want %d", len(parsed), 2*len(bodies))
	}
	// The golden request was new, so it was built.
	if parsed[first] != int64(1) {
		t.Errorf("first request: serve.rawparse parsed = %v, want 1", parsed[first])
	}
	for _, trace := range warmTraces {
		if parsed[trace] != int64(0) {
			t.Errorf("warm request %s: serve.rawparse parsed = %v, want 0", trace, parsed[trace])
		}
	}
}

// TestRawBadTextAfterGood: once a good request over a set is in the table, a request
// with a bad path over that set, or with a bad axiom text, still answers
// 400 with the error parsing it afresh gives.
func TestRawBadTextAfterGood(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}))
	defer ts.Close()
	good := rawTreeRequest()
	if resp, br := postBatch(t, ts.URL, good); resp.StatusCode != http.StatusOK {
		t.Fatalf("good request: status %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}

	badPath := rawTreeRequest()
	badPath.Raw = append(badPath.Raw, wire.RawQuery{SHandle: "h", SPath: "L.X", SField: "val", THandle: "h", TField: "val"})
	ax, err := axiom.ParseSet(good.AxiomSetName, good.AxiomSet)
	if err != nil {
		t.Fatal(err)
	}
	_, pathErr := exec.BuildRawQueries(ax, badPath.Raw)

	badSet := rawTreeRequest()
	badSet.AxiomSet += "forall p, p.L <> \n"
	_, setErr := axiom.ParseSet(badSet.AxiomSetName, badSet.AxiomSet)
	if pathErr == nil || setErr == nil {
		t.Fatalf("fixtures parse: path error %v, axiom error %v", pathErr, setErr)
	}

	for name, tc := range map[string]struct {
		req  wire.BatchRequest
		want string
	}{
		"bad path":      {badPath, pathErr.Error()},
		"bad axiom set": {badSet, "axiom_set: " + setErr.Error()},
	} {
		for range 2 {
			resp, br := postBatch(t, ts.URL, tc.req)
			if resp.StatusCode != http.StatusBadRequest || br.Stats.AxiomSet != tc.want {
				t.Errorf("%s: %d %q, want 400 %q", name, resp.StatusCode, br.Stats.AxiomSet, tc.want)
			}
		}
	}
}
