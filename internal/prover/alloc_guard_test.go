//go:build !race

package prover

import (
	"testing"

	"repro/internal/automata"
	"repro/internal/pathexpr"
)

// side parses src into the components of one goal side.
func side(src string) []pathexpr.Expr { return pathexpr.Components(pathexpr.MustParse(src)) }

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
