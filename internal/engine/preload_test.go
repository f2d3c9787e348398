package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/automata"
)

// TestPreloadedEngineMatchesCold is the artifact round-trip differential:
// a cold engine answers the full seeded workload; its DFA-cache snapshot is
// saved, loaded back from disk, and preseeded into a second
// engine, which must produce byte-identical verdicts — and do so without
// compiling a single DFA, proving the artifact really covers the working
// set rather than being quietly recompiled around.
func TestPreloadedEngineMatchesCold(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			queries := Workload(seed, 0)
			if len(queries) < 200 {
				t.Fatalf("workload too small: %d queries", len(queries))
			}
			cold := New(Options{Workers: 4})
			want := cold.Batch(context.Background(), queries)

			path := filepath.Join(t.TempDir(), "workload.aptc")
			if err := cold.DFACache().Snapshot().Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			art, err := automata.LoadArtifact(path)
			if err != nil {
				t.Fatalf("LoadArtifact: %v", err)
			}
			if len(art.DFAs) == 0 {
				t.Fatal("snapshot holds no DFAs; the differential would be vacuous")
			}

			warm := New(preloaded(Options{Workers: 4}, art))
			got := warm.Batch(context.Background(), queries)
			if len(got) != len(want) {
				t.Fatalf("got %d results for %d queries", len(got), len(queries))
			}
			for i := range got {
				if got[i].Result != want[i].Result || got[i].Kind != want[i].Kind || got[i].Reason != want[i].Reason {
					t.Errorf("query %d (%s): preloaded engine says %v/%v/%q, cold engine says %v/%v/%q",
						i, describe(queries[i]),
						got[i].Result, got[i].Kind, got[i].Reason,
						want[i].Result, want[i].Kind, want[i].Reason)
				}
			}
			if st := warm.DFACache().Stats(); st.Compiles != 0 {
				t.Errorf("preloaded engine compiled %d DFAs; the artifact should cover the whole working set", st.Compiles)
			}
		})
	}
}
