package serve

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/engine"
	"repro/internal/lang"
)

// replayArtifact builds an artifact exactly as aptc -program mode does:
// analyze the program, replay the queries through an engine, snapshot, and
// record the workload for boot replay.
func replayArtifact(t *testing.T, source, fn string, queryLines []string) *automata.Artifact {
	t.Helper()
	prog, err := lang.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, fn, analysis.Options{InferTypeAxioms: true})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := res.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(res.Axioms, engine.Options{Workers: 1})
	eng.Batch(context.Background(), queries)
	art := eng.SnapshotArtifact()
	art.Replays = append(art.Replays, automata.ArtifactReplay{
		Program: source, Fn: fn, Queries: queryLines,
	})
	return art
}

// TestPreloadBootPrewarm checks the whole boot-warm chain: the artifact's
// persisted axiom set must reconstruct to the same pool identity the
// request's own analysis produces, so a -preload server's very first
// request finds its engine already resident (ColdEngine false) and answers
// identically to an unpreloaded server.
func TestPreloadBootPrewarm(t *testing.T) {
	source := treeProgram(t)
	queryLines := []string{"between S T"}
	art := replayArtifact(t, source, "subr", queryLines)
	if len(art.AxiomSets) == 0 || len(art.Replays) == 0 {
		t.Fatalf("artifact lacks axiom sets (%d) or replays (%d)", len(art.AxiomSets), len(art.Replays))
	}

	srv := New(Config{Workers: 1, Preload: art})
	if n := srv.pool.Len(); n != 1 {
		t.Fatalf("boot prewarm left %d resident engines, want 1", n)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := BatchRequest{Program: source, Fn: "subr", Queries: queryLines}
	resp, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	if br.Stats.ColdEngine {
		t.Error("first request against a preloaded server built its engine; boot prewarm did not take")
	}

	bare := New(Config{Workers: 1})
	ts2 := httptest.NewServer(bare)
	defer ts2.Close()
	_, want := postBatch(t, ts2.URL, req)
	if len(br.Results) != len(want.Results) || len(br.Results) == 0 {
		t.Fatalf("preloaded server returned %d results, unpreloaded %d", len(br.Results), len(want.Results))
	}
	for i := range br.Results {
		if br.Results[i] != want.Results[i] {
			t.Errorf("results[%d]: preloaded %+v, unpreloaded %+v", i, br.Results[i], want.Results[i])
		}
	}
}
