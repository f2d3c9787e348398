//go:build !race

package prover

import (
	"testing"

	"repro/internal/automata"
	"repro/internal/pathexpr"
)

// side parses src into the components of one goal side.
func side(src string) []pathexpr.Expr { return pathexpr.Components(pathexpr.MustParse(src)) }

// TestWarmHitAllocationBudget is the prover's share of the interned-key
// allocation guard (the engine package holds the caches' share): a goal
// carries its sides' nodes and its hypotheses' fingerprint, so building its
// proof-cache key — with or without induction hypotheses in scope — must
// not allocate.  Reassembling or re-interning a side here would.  Gated out
// under the race detector, whose instrumentation allocates.
func TestWarmHitAllocationBudget(t *testing.T) {
	g := newGoal(SameSrc, side("L.(L|R)*.N+"), side("R.(L|R)*.N"))
	ih := hyps{}.with(lemma{form: g.form, re1: g.xn, re2: g.yn, maxSize: g.size() + 2})
	var sink proofKey
	for _, lems := range []hyps{{}, ih} {
		if got := testing.AllocsPerRun(200, func() {
			sink = proofKey{goal: g.key(), lems: lems.key}
		}); got > 0 {
			t.Errorf("proof-cache key under %d hypotheses allocates %.1f per build, want 0", len(lems.list), got)
		}
	}
	if sink.goal != g.key() {
		t.Fatal("key not built")
	}
}

// TestCutsAllocationBudget: every goal the search enters builds both
// sides' cuts, so a side's cuts — each suffix's summary folded, a slot for
// each suffix and prefix node — take one allocation, sized to the side.
func TestCutsAllocationBudget(t *testing.T) {
	g := newGoal(SameSrc, side("L.(L|R)*.N+.L.R"), side("R"))
	alpha := automata.NewAlphabet("L", "N", "R")
	var sink cuts
	for _, s := range []struct {
		comps []pathexpr.Expr
		whole *pathexpr.Node
	}{{g.x, g.xn}, {g.y, g.yn}} {
		if got := testing.AllocsPerRun(200, func() {
			sink = newCuts(s.comps, s.whole, alpha)
		}); got > 1 {
			t.Errorf("cuts of %s allocate %.1f per build, want at most 1", s.whole, got)
		}
	}
	if len(sink.at) != len(g.y)+1 {
		t.Fatal("cuts not built")
	}
}
