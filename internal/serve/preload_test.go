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
// goals are scoped to the same axiom-set fingerprint the request's own
// analysis produces, so neither the boot replay nor a -preload server's
// very first request searches a proof (0 memo misses), and the answers are
// identical to an unpreloaded server's.
func TestPreloadBootPrewarm(t *testing.T) {
	source := treeProgram(t)
	queryLines := []string{"between S T"}
	art := replayArtifact(t, source, "subr", queryLines)
	if len(art.Goals) == 0 || len(art.Replays) == 0 {
		t.Fatalf("artifact lacks goals (%d) or replays (%d)", len(art.Goals), len(art.Replays))
	}

	srv := newMetered(Config{Workers: 1, Preload: art})
	misses0 := metrics(srv).Counters["engine.memo_misses"]
	if misses0 != 0 {
		t.Errorf("boot replay searched %d proofs; the preseeded goals did not take", misses0)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := BatchRequest{Program: source, Fn: "subr", Queries: queryLines}
	resp, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	if misses := metrics(srv).Counters["engine.memo_misses"] - misses0; misses != 0 {
		t.Errorf("first request against a preloaded server searched %d proofs, want 0", misses)
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
