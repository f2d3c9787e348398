package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prover"
)

// TestTesterSwapSymmetric is the swap property the proof memo's single
// orientation rests on: over the whole differential suite, the sequential
// tester gives ⟨S,T⟩ and ⟨T,S⟩ the same Result, so proving every goal in
// its canonical orientation cannot change a verdict.
func TestTesterSwapSymmetric(t *testing.T) {
	queries := Workload(1, 0)
	fwd := core.NewTester(WorkloadWindows()[0], prover.Options{})
	rev := core.NewTester(WorkloadWindows()[0], prover.Options{})
	for i, q := range queries {
		a, b := fwd.DepTest(q), rev.DepTest(swapQuery(q))
		if a.Result != b.Result {
			t.Errorf("query %d (%s): %v forward but %v swapped", i, describe(q), a.Result, b.Result)
		}
	}
}
