package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/axiom"
)

// rawTreeRequest builds a raw-mode request over the paper's leaf-linked
// binary tree: left and right subtrees of one vertex are provably disjoint.
func rawTreeRequest() BatchRequest {
	tree := axiom.LeafLinkedBinaryTree()
	return BatchRequest{
		AxiomSet:     tree.Source(),
		AxiomSetName: tree.StructName,
		Raw: []RawQuery{
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
	srv := New(Config{Workers: 2})
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
	if !br.Stats.ColdEngine {
		t.Error("first raw request should report a cold engine")
	}

	// Same set again: the engine (keyed by the set's content, not by how
	// the request spelled it) must be warm.
	_, br2 := postBatch(t, ts.URL, rawTreeRequest())
	if br2.Stats.ColdEngine {
		t.Error("second raw request rebuilt the engine")
	}
	if br2.Stats.MemoHits == 0 {
		t.Error("second raw request hit the proof memo 0 times")
	}
}

// TestRawBatchRejectsBadRequests: malformed raw requests answer 400 with a
// JSON error, and mixing modes is refused.
func TestRawBatchRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	tree := axiom.LeafLinkedBinaryTree()
	for name, req := range map[string]BatchRequest{
		"mixed modes": {Program: "void f() { int x; x = 1; }", AxiomSet: tree.Source(),
			Raw: []RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val"}}},
		"bad axiom set": {AxiomSet: "forall nonsense",
			Raw: []RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val"}}},
		"bad path": {AxiomSet: tree.Source(),
			Raw: []RawQuery{{SHandle: "h", SPath: "((", SField: "val", THandle: "h", TField: "val"}}},
		"bad relation": {AxiomSet: tree.Source(),
			Raw: []RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val", Relation: "sideways"}}},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
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

// TestSnapshotPreloadHandoff is the warm-handoff round trip the router's
// ring-change path performs: snapshot a warm engine off one server by
// fingerprint, preload it into a second, and observe the second server
// answer its first request over that set without a cold build.
func TestSnapshotPreloadHandoff(t *testing.T) {
	a := New(Config{Workers: 1})
	tsA := httptest.NewServer(a)
	defer tsA.Close()

	// Warm server A on the tree set via raw mode.
	if resp, br := postBatch(t, tsA.URL, rawTreeRequest()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}

	fp := axiom.LeafLinkedBinaryTree().Fingerprint64()
	snap, err := http.Get(fmt.Sprintf("%s/v1/snapshot?fp=%016x", tsA.URL, fp))
	if err != nil {
		t.Fatal(err)
	}
	art, err := io.ReadAll(snap.Body)
	snap.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status = %d (%s)", snap.StatusCode, art)
	}
	if len(art) == 0 {
		t.Fatal("snapshot: empty artifact")
	}

	// Unknown fingerprints answer 404, not an empty artifact.
	if resp, err := http.Get(tsA.URL + "/v1/snapshot?fp=00000000deadbeef"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown fingerprint: status = %d, want 404", resp.StatusCode)
		}
	}

	b := New(Config{Workers: 1})
	tsB := httptest.NewServer(b)
	defer tsB.Close()

	pre, err := http.Post(tsB.URL+"/v1/preload", "application/octet-stream", bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	var report PreloadReport
	if err := json.NewDecoder(pre.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	pre.Body.Close()
	if pre.StatusCode != http.StatusOK {
		t.Fatalf("preload: status = %d", pre.StatusCode)
	}
	if report.Built != 1 || report.Resident != 1 {
		t.Errorf("preload report = %+v, want built 1 resident 1", report)
	}

	// The handoff's whole point: B's first request over the set rides the
	// shipped engine instead of building cold.
	resp, br := postBatch(t, tsB.URL, rawTreeRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-preload request: status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	if br.Stats.ColdEngine {
		t.Error("first request after preload still built the engine cold")
	}
	for i, r := range br.Results {
		if r.Result != "No" {
			t.Errorf("results[%d] = %q (%s), want No", i, r.Result, r.Reason)
		}
	}
}

// TestBatchStatsTimeoutsPerRequest: stats.timeouts counts the request's own
// timed-out queries, like its neighbours degraded_queries and
// deadline_expired — not the axiom set's engine's lifetime count, which
// would repeat an earlier request's timeout on every later request.
func TestBatchStatsTimeoutsPerRequest(t *testing.T) {
	srv := New(Config{Workers: 1, QueryTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The heavy pair's proof search runs well past the prover's interrupt
	// poll stride, so the 1ns per-query timeout is observed mid-search.
	heavy := rawTreeRequest()
	heavy.Raw = []RawQuery{{
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

	// Same axiom set, so the same engine, with a generous timeout.
	clean := rawTreeRequest()
	clean.TimeoutMS = 10_000
	_, br2 := postBatch(t, ts.URL, clean)
	if br2.Stats.ColdEngine {
		t.Fatal("clean request built a new engine; the test needs the timed-out request's engine")
	}
	if br2.Stats.Timeouts != 0 {
		t.Errorf("clean request after a timed-out one: stats.timeouts = %d, want 0", br2.Stats.Timeouts)
	}
}
