//go:build !race

package automata

import (
	"testing"

	"repro/internal/pathexpr"
)

// The race detector's instrumentation allocates; allocation budgets are
// checked in non-race builds only.

// TestCompileAllocations: compiling and minimizing a typical prover
// expression allocates a small constant number of slices — the position
// sets, the state index, the tables — and nothing per state or per
// transition.
func TestCompileAllocations(t *testing.T) {
	e := pathexpr.MustParse("L.(L|R)*.N.N.N")
	a := NewAlphabet("L", "R", "N")
	allocs := testing.AllocsPerRun(100, func() {
		d, err := Compile(e, a)
		if err != nil {
			t.Fatal(err)
		}
		d.Minimize()
	})
	if allocs > 16 {
		t.Errorf("Compile+Minimize of %v made %.0f allocations, want at most 16", e, allocs)
	}
	t.Logf("%v: %.0f allocations", e, allocs)
}
