package scenario

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
)

// TestRegressionCorpusPreloadIdentity replays every committed divergence
// artifact's query set twice — once on a cold engine, once on an engine
// preseeded from the cold engine's disk-round-tripped DFA snapshot — and
// demands byte-identical outcomes.  Preloading is a startup optimization;
// the moment it changes a verdict on the fuzz corpus it is a soundness bug.
func TestRegressionCorpusPreloadIdentity(t *testing.T) {
	files, err := ListArtifacts(regressionsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("regression corpus is empty; expected committed artifacts under testdata/fuzz/regressions")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			d, err := LoadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(d.Program)
			if err != nil {
				t.Fatal(err)
			}
			res, err := analysis.Analyze(prog, d.Fn, analysis.Options{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			var qs []core.Query
			switch d.Query.Mode {
			case "between":
				qs, err = res.QueriesBetween(d.Query.A, d.Query.B)
			case "cross":
				qs, err = res.LoopCarriedBetween(d.Query.A, d.Query.B)
			case "loop":
				qs, err = res.LoopCarriedQueries(d.Query.A)
			}
			if err != nil || len(qs) == 0 {
				t.Skipf("artifact no longer expands to queries (err=%v)", err)
			}

			cold := engine.New(engine.Options{QueryTimeout: 2 * time.Second})
			want := cold.Batch(context.Background(), qs)

			aptc := filepath.Join(t.TempDir(), "corpus.aptc")
			if err := cold.DFACache().Snapshot().Save(aptc); err != nil {
				t.Fatalf("Save: %v", err)
			}
			art, err := automata.LoadArtifact(aptc)
			if err != nil {
				t.Fatalf("LoadArtifact: %v", err)
			}

			dfas := automata.NewSharedCache(0, 0, 0)
			dfas.Preseed(art)
			warm := engine.New(engine.Options{QueryTimeout: 2 * time.Second, DFACache: dfas})
			got := warm.Batch(context.Background(), qs)
			for i := range got {
				if got[i].Result != want[i].Result || got[i].Kind != want[i].Kind || got[i].Reason != want[i].Reason {
					t.Errorf("query %d: preloaded engine says %v/%v/%q, cold says %v/%v/%q",
						i, got[i].Result, got[i].Kind, got[i].Reason,
						want[i].Result, want[i].Kind, want[i].Reason)
				}
			}
		})
	}
}
