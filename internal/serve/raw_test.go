package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/axiom"
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
