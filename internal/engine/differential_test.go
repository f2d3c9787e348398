package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/prover"
)

// runSequential answers the workload on a plain sequential core.Tester
// with memoization off — the reference the engine must agree with, every
// goal searched in the caller's orientation.  Each query carries its own
// axiom window, so one tester (whose per-window provers are memoized by
// fingerprint) covers the whole workload.
func runSequential(t *testing.T, queries []core.Query) []core.Outcome {
	t.Helper()
	tester := core.NewTester(WorkloadWindows()[0], prover.Options{}).SetProofMemo(nil)
	out := make([]core.Outcome, len(queries))
	for i, q := range queries {
		out[i] = tester.DepTest(q)
	}
	return out
}

func describe(q core.Query) string {
	return fmt.Sprintf("%v vs %v (rel %d, window %s)", q.S, q.T, q.Relation, q.Axioms.StructName)
}

// TestDifferentialAgainstSequential is the satellite harness: seeded
// pseudo-random workloads (≥200 queries per seed) must get identical
// verdicts — Result and DepKind — from engine.Batch and from the
// sequential tester, at several pool widths.
func TestDifferentialAgainstSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260806} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			queries := Workload(seed, 0)
			if len(queries) < 200 {
				t.Fatalf("workload too small: %d queries", len(queries))
			}
			want := runSequential(t, queries)
			// The workload must be budget-insensitive: an Exhausted proof's
			// Maybe could legitimately differ between warm and cold caches,
			// which would make the differential comparison vacuous.
			for i, o := range want {
				for _, pf := range []*prover.Proof{o.Proof, o.AuxProof} {
					if pf != nil && pf.Result == prover.Exhausted {
						t.Fatalf("query %d (%s): sequential proof exhausted its budget; workload must stay within default budgets", i, describe(queries[i]))
					}
				}
			}
			for _, workers := range []int{1, 4, 8} {
				eng := New(Options{Workers: workers})
				got := eng.Batch(context.Background(), queries)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: got %d results for %d queries", workers, len(got), len(queries))
				}
				for i := range got {
					if got[i].Result != want[i].Result || got[i].Kind != want[i].Kind {
						t.Errorf("workers=%d query %d (%s): engine says %v/%v, sequential says %v/%v",
							workers, i, describe(queries[i]),
							got[i].Result, got[i].Kind, want[i].Result, want[i].Kind)
					}
					if got[i].Reason != want[i].Reason {
						t.Errorf("workers=%d query %d (%s): engine reason %q, sequential reason %q",
							workers, i, describe(queries[i]), got[i].Reason, want[i].Reason)
					}
				}
			}
		})
	}
}

// TestBatchRepeatDeterministic re-runs one batch on one engine and demands
// bit-identical verdicts: the shared caches may change *when* an answer is
// found, never *what* it is.
func TestBatchRepeatDeterministic(t *testing.T) {
	queries := Workload(3, 0)
	eng := New(Options{Workers: 4})
	first := eng.Batch(context.Background(), queries)
	for round := 0; round < 3; round++ {
		again := eng.Batch(context.Background(), queries)
		for i := range again {
			if again[i].Result != first[i].Result || again[i].Kind != first[i].Kind || again[i].Reason != first[i].Reason {
				t.Fatalf("round %d query %d (%s): verdict changed from %v/%v/%q to %v/%v/%q",
					round, i, describe(queries[i]),
					first[i].Result, first[i].Kind, first[i].Reason,
					again[i].Result, again[i].Kind, again[i].Reason)
			}
		}
	}
}

// TestVerifyProofsMatchesSequential runs the differential comparison with
// independent proof checking on, covering the checker path under the memo
// (a memoized proof must still check on every query that receives it).
func TestVerifyProofsMatchesSequential(t *testing.T) {
	queries := Workload(11, 0)
	tester := core.NewTester(WorkloadWindows()[0], prover.Options{}).SetProofMemo(nil)
	tester.VerifyProofs = true
	want := make([]core.Outcome, len(queries))
	for i, q := range queries {
		want[i] = tester.DepTest(q)
	}
	eng := New(Options{Workers: 4, VerifyProofs: true})
	got := eng.Batch(context.Background(), queries)
	for i := range got {
		if got[i].Result != want[i].Result || got[i].Kind != want[i].Kind {
			t.Errorf("query %d (%s): engine says %v/%v, sequential says %v/%v",
				i, describe(queries[i]), got[i].Result, got[i].Kind, want[i].Result, want[i].Kind)
		}
	}
}
