package prover_test

import (
	"math/rand"
	"testing"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// TestSummaryFilterAgreesWithDecisions: over the engine's differential
// workloads and random goals, every direct check the summary filter
// answers alone is one the language layer, asked through the SharedCache,
// also answers "not covered" in both orientations.  The filter may only
// skip questions, never change an answer.
func TestSummaryFilterAgreesWithDecisions(t *testing.T) {
	filtered, restore := prover.WatchFilter(t)
	defer restore()

	for _, seed := range []int64{1, 7, 42} {
		tester := core.NewTester(engine.WorkloadWindows()[0], prover.Options{})
		for _, q := range engine.Workload(seed, 0) {
			tester.DepTest(q)
		}
	}
	incl, equiv := filtered()
	if incl == 0 || equiv == 0 {
		t.Fatalf("the workloads' searches filtered %d inclusion and %d lemma checks, want some of each", incl, equiv)
	}

	rng := rand.New(rand.NewSource(5))
	for _, ax := range []*axiom.Set{axiom.LeafLinkedBinaryTree(), axiom.SparseMatrixCore()} {
		p := prover.New(ax, prover.Options{MaxSteps: 5000})
		fields := append(ax.Fields(), "undeclared")
		for i := 0; i < 150; i++ {
			x, y := genGoalSide(rng, fields, 3), genGoalSide(rng, fields, 3)
			p.Prove(prover.SameSrc, x, y)
			p.Prove(prover.DiffSrc, x, y)
		}
	}
	if i, _ := filtered(); i == incl {
		t.Fatal("the random goals' searches filtered no direct check")
	}
	i, e := filtered()
	t.Logf("%d filtered inclusion and %d lemma checks decided (%d and %d from the workloads)", i, e, incl, equiv)
}

// TestFilteredChecksCounted: the stats split the direct checks the filter
// answered from the ones it passed on, and a proof the filter could not
// have found without the language layer is still found.
func TestFilteredChecksCounted(t *testing.T) {
	p := prover.New(axiom.LeafLinkedBinaryTree(), prover.Options{})
	pf := p.ProveDisjoint(pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	if pf.Result != prover.Proved {
		t.Fatal("section 3.3 theorem not proved")
	}
	if err := p.CheckProof(pf); err != nil {
		t.Fatal(err)
	}
	st := pf.Stats
	if st.FilteredChecks == 0 || st.FilteredChecks >= st.DirectChecks {
		t.Errorf("%d of %d direct checks filtered, want some but not all", st.FilteredChecks, st.DirectChecks)
	}
}

// TestTheoremFromNodes: a proof's theorem, rendered from its root goal's
// cached node renderings, equals the rendering of the goal's components —
// for random theorems and for every pair of the differential workload's
// access paths, in both goal forms.
func TestTheoremFromNodes(t *testing.T) {
	type pair struct{ x, y pathexpr.Expr }
	var pairs []pair
	for _, q := range engine.Workload(1, 0) {
		pairs = append(pairs, pair{q.S.Path, q.T.Path})
	}
	rng := rand.New(rand.NewSource(9))
	fields := append(axiom.LeafLinkedBinaryTree().Fields(), "next", "prev")
	for i := 0; i < 300; i++ {
		pairs = append(pairs, pair{genGoalSide(rng, fields, 3), genGoalSide(rng, fields, 3)})
	}
	p := prover.New(axiom.LeafLinkedBinaryTree(), prover.Options{MaxSteps: 2000})
	for _, pr := range pairs {
		for _, form := range []prover.Form{prover.SameSrc, prover.DiffSrc} {
			theorem, want := prover.RootGoalStrings(form, pr.x, pr.y)
			if theorem != want {
				t.Fatalf("theorem of (%v, %v) renders from its nodes as %q, from its components as %q", pr.x, pr.y, theorem, want)
			}
			if got := p.Prove(form, pr.x, pr.y).Theorem; got != want {
				t.Fatalf("Prove(%v, %v).Theorem = %q, want %q", pr.x, pr.y, got, want)
			}
		}
	}
}
