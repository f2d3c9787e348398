//go:build !race

package automata

import (
	"testing"

	"repro/internal/pathexpr"
)

// The race detector's instrumentation allocates; allocation budgets are
// checked in non-race builds only.

// TestCompileAllocations: compiling a typical prover expression allocates
// a small constant number of slices — the position sets, the state index,
// the tables — and nothing per state or per transition.
func TestCompileAllocations(t *testing.T) {
	e := pathexpr.MustParse("L.(L|R)*.N.N.N")
	a := NewAlphabet("L", "R", "N")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Compile(e, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("Compile of %v made %.0f allocations, want at most 16", e, allocs)
	}
	t.Logf("%v: %.0f allocations", e, allocs)
}

// TestSummaryAllocations: the summary filter runs on every direct check the
// prover tries, so folding a summary, concatenating two and testing
// inclusion allocate nothing.
func TestSummaryAllocations(t *testing.T) {
	e := pathexpr.Cat(pathexpr.MustParse("L.(L|R)*.N+"), pathexpr.Alt{Alts: []pathexpr.Expr{pathexpr.F("N"), pathexpr.Empty{}}})
	a := NewAlphabet("L", "R", "N")
	n := Summarize(pathexpr.F("N"), a)
	var sink bool
	allocs := testing.AllocsPerRun(200, func() {
		s := Summarize(e, a)
		sink = s.Then(n).MayInclude(s)
	})
	if allocs != 0 {
		t.Errorf("Summarize+Then+MayInclude of %v made %.1f allocations, want 0", e, allocs)
	}
	_ = sink
}
