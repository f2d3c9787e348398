package core

import (
	"math/rand"
	"testing"

	"repro/internal/axiom"
	"repro/internal/heap"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// randWordPath draws a random word path over the fields.
func randWordPath(rng *rand.Rand, fields []string, maxLen int) pathexpr.Expr {
	n := rng.Intn(maxLen + 1)
	w := make([]string, n)
	for i := range w {
		w[i] = fields[rng.Intn(len(fields))]
	}
	return pathexpr.FromWord(w)
}

// TestPropertyYesAndNoAreExclusive: for random queries, deptest never
// contradicts itself — a query and its mirror (S and T swapped) agree,
// since data dependence existence is symmetric in the accessed locations.
func TestPropertyMirrorConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tester := NewTester(axiom.LeafLinkedBinaryTree(), prover.Options{})
	fields := []string{"L", "R", "N"}
	for i := 0; i < 200; i++ {
		q := Query{
			Axioms: tester.Axioms(),
			S:      Access{Handle: "_h", Path: randWordPath(rng, fields, 4), Field: "d", IsWrite: true},
			T:      Access{Handle: "_h", Path: randWordPath(rng, fields, 4), Field: "d", IsWrite: true},
		}
		mirror := q.Swapped()
		a, b := tester.DepTest(q).Result, tester.DepTest(mirror).Result
		if a != b {
			t.Fatalf("mirror inconsistency on %v / %v: %v vs %v", q.S.Path, q.T.Path, a, b)
		}
	}
}

// TestPropertyYesImpliesConcreteCollision: every Yes on word paths is
// confirmed by walking a concrete conforming heap where both paths exist.
func TestPropertyYesImpliesConcreteCollision(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tester := NewTester(axiom.LeafLinkedBinaryTree(), prover.Options{})
	g, root := heap.BuildLeafLinkedTree(3)
	fields := []string{"L", "R", "N"}
	yes := 0
	for i := 0; i < 300; i++ {
		p1 := randWordPath(rng, fields, 3)
		p2 := randWordPath(rng, fields, 3)
		q := Query{
			Axioms: tester.Axioms(),
			S:      Access{Handle: "_h", Path: p1, Field: "d", IsWrite: true},
			T:      Access{Handle: "_h", Path: p2, Field: "d", IsWrite: true},
		}
		if tester.DepTest(q).Result != Yes {
			continue
		}
		yes++
		w1, _ := pathexpr.Word(p1)
		w2, _ := pathexpr.Word(p2)
		v1, ok1 := g.WalkWord(root, w1)
		v2, ok2 := g.WalkWord(root, w2)
		if ok1 && ok2 && v1 != v2 {
			t.Fatalf("Yes on %v vs %v but they reach %d and %d", p1, p2, v1, v2)
		}
	}
	if yes == 0 {
		t.Error("no Yes answers sampled; test has no power")
	}
}

// TestPropertyNoNeverContradictsYesScreen: a query whose paths are
// definitely aliased can never come back No.
func TestPropertyNoNeverContradictsYesScreen(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tester := NewTester(axiom.RingOf("next", 4), prover.Options{})
	for i := 0; i < 100; i++ {
		k := rng.Intn(9)
		w := make([]string, k)
		for j := range w {
			w[j] = "next"
		}
		p1 := pathexpr.FromWord(w)
		p2 := pathexpr.FromWord(append(append([]string{}, w...), "next", "next", "next", "next"))
		q := Query{
			Axioms: tester.Axioms(),
			S:      Access{Handle: "_h", Path: p1, Field: "v", IsWrite: true},
			T:      Access{Handle: "_h", Path: p2, Field: "v", IsWrite: true},
		}
		if got := tester.DepTest(q).Result; got != Yes {
			t.Fatalf("next^%d vs next^%d in a 4-ring: %v, want Yes", k, k+4, got)
		}
	}
}

// TestLoopCarriedConstruction: the helper builds the §5 query shape.
func TestLoopCarriedConstruction(t *testing.T) {
	q := LoopCarried(axiom.SparseMatrixCore(), "_hr",
		pathexpr.MustParse("nrowE"), pathexpr.MustParse("ncolE+"), "val", true)
	if q.S.Handle != "_hr" || q.T.Handle != "_hr" {
		t.Error("handles must match")
	}
	if got := q.T.Path.String(); got != "nrowE+.ncolE+" {
		t.Errorf("later-iteration path = %s", got)
	}
	if !q.S.IsWrite || !q.T.IsWrite {
		t.Error("write flags lost")
	}
}

// TestPerWindowProverCaching: queries with reduced axiom windows get their
// own prover and answers change accordingly.
func TestPerWindowProverCaching(t *testing.T) {
	full := axiom.SinglyLinkedList("link")
	tester := NewTester(full, prover.Options{})
	q := Query{
		Axioms: full,
		S:      Access{Handle: "_h", Path: pathexpr.Eps, Field: "f", IsWrite: true},
		T:      Access{Handle: "_h", Path: pathexpr.MustParse("link+"), Field: "f", IsWrite: true},
	}
	if out := tester.DepTest(q); out.Result != No {
		t.Fatalf("full axioms = %v, want No", out.Result)
	}
	q.Axioms = full.WithoutFields("link")
	if out := tester.DepTest(q); out.Result != Maybe {
		t.Fatalf("emptied window = %v, want Maybe", out.Result)
	}
	// And back: the original prover is reused.
	q.Axioms = full
	if out := tester.DepTest(q); out.Result != No {
		t.Fatalf("restored window = %v, want No", out.Result)
	}
}
