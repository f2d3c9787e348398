package prover

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/axiom"
	"repro/internal/heap"
	"repro/internal/pathexpr"
)

// These tests enumerate *all* short word-path pairs over a structure's
// fields and compare the prover against ground truth established on a
// battery of conforming heaps:
//
//   - if the two paths collide on any conforming heap, the prover must NOT
//     prove disjointness (exhaustive soundness over the enumerated space);
//   - the fraction of truly-disjoint pairs the prover does prove measures
//     its precision, which must clear a floor (the paper's claim is
//     accuracy "grows with the accuracy of the axioms" — with Figure 3's
//     full axiom set most short-path facts are decidable).

// allWords enumerates all words over fields up to maxLen (including ε).
func allWords(fields []string, maxLen int) [][]string {
	out := [][]string{{}}
	frontier := [][]string{{}}
	for l := 0; l < maxLen; l++ {
		var next [][]string
		for _, w := range frontier {
			for _, f := range fields {
				ext := append(append([]string{}, w...), f)
				next = append(next, ext)
				out = append(out, ext)
			}
		}
		frontier = next
	}
	return out
}

func TestExhaustiveShortPathsLeafLinkedTree(t *testing.T) {
	fields := []string{"L", "R", "N"}
	words := allWords(fields, 3)

	// Ground-truth battery: complete trees of several depths plus random
	// shapes, all conforming to Figure 3's axioms.
	var graphs []*heap.Graph
	for depth := 0; depth <= 3; depth++ {
		g, _ := heap.BuildLeafLinkedTree(depth)
		graphs = append(graphs, g)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		g, _ := heap.RandomLeafLinkedTree(rng, 1+rng.Intn(14))
		graphs = append(graphs, g)
	}

	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	var provedDisjoint, trulyDisjoint, collisions, unsound int
	for _, w1 := range words {
		for _, w2 := range words {
			x, y := pathexpr.FromWord(w1), pathexpr.FromWord(w2)
			collides := false
		scan:
			for _, g := range graphs {
				for v := 0; v < g.NumVertices(); v++ {
					if !g.Disjoint(heap.Vertex(v), x, heap.Vertex(v), y) {
						collides = true
						break scan
					}
				}
			}
			proved := p.Prove(SameSrc, x, y).Result == Proved
			switch {
			case collides && proved:
				unsound++
				if unsound <= 5 {
					t.Errorf("UNSOUND: %v and %v collide on a conforming heap but were proved disjoint",
						fmtWord(w1), fmtWord(w2))
				}
			case collides:
				collisions++
			case proved:
				trulyDisjoint++
				provedDisjoint++
			default:
				trulyDisjoint++
			}
		}
	}
	if unsound > 0 {
		t.Fatalf("%d unsound proofs", unsound)
	}
	precision := float64(provedDisjoint) / float64(trulyDisjoint)
	t.Logf("%d pairs: %d collide somewhere, %d disjoint-on-battery, %d proved (%.0f%% precision)",
		len(words)*len(words), collisions, trulyDisjoint, provedDisjoint, 100*precision)
	// The denominator over-approximates true disjointness: the battery only
	// contains proper leaf-linked trees, but the axioms admit stranger
	// conforming heaps (nothing in A1–A4 forbids p.L = p.N, since the
	// axioms never relate the two dimensions from one vertex).  Pairs
	// mixing dimensions are therefore correctly unprovable yet counted as
	// "disjoint on battery".  The floor reflects the genuinely derivable
	// share of the enumerated space.
	if precision < 0.4 {
		t.Errorf("precision %.0f%% below floor; the axioms should decide much of the short-path space", 100*precision)
	}
}

func TestExhaustiveShortPathsList(t *testing.T) {
	words := allWords([]string{"next"}, 5)
	var graphs []*heap.Graph
	for _, n := range []int{1, 2, 3, 6, 9} {
		g, _ := heap.BuildList(n, "next")
		graphs = append(graphs, g)
	}
	p := New(axiom.SinglyLinkedList("next"), Options{})
	for _, w1 := range words {
		for _, w2 := range words {
			x, y := pathexpr.FromWord(w1), pathexpr.FromWord(w2)
			proved := p.Prove(SameSrc, x, y).Result == Proved
			// Ground truth on a list is simply word length equality.
			shouldProve := len(w1) != len(w2)
			if proved != shouldProve {
				t.Errorf("next^%d <> next^%d: proved=%v, want %v", len(w1), len(w2), proved, shouldProve)
			}
		}
	}
}

// TestExhaustiveRing3: on a 3-ring with the cycle equality axiom, two
// next-powers are aliased iff equal mod 3; the prover plus DefinitelyAliased
// must classify every pair of powers up to 7 correctly.
func TestExhaustiveRing3(t *testing.T) {
	p := New(axiom.RingOf("next", 3), Options{})
	word := func(k int) pathexpr.Expr {
		w := make([]string, k)
		for i := range w {
			w[i] = "next"
		}
		return pathexpr.FromWord(w)
	}
	for i := 0; i <= 7; i++ {
		for j := 0; j <= 7; j++ {
			aliased := (i % 3) == (j % 3)
			if got := p.DefinitelyAliased(word(i), word(j)); got != aliased {
				t.Errorf("next^%d ≡ next^%d: DefinitelyAliased=%v, want %v", i, j, got, aliased)
			}
			proved := p.Prove(SameSrc, word(i), word(j)).Result == Proved
			if proved && aliased {
				t.Errorf("next^%d and next^%d are aliased but proved disjoint", i, j)
			}
			if !proved && !aliased {
				// Disjointness of distinct residues needs the pairwise
				// distinctness axioms; all are derivable in a 3-ring.
				t.Errorf("next^%d <> next^%d (distinct residues) not proved", i, j)
			}
		}
	}
}

// TestProverDeterminism: identical queries on fresh provers give identical
// results and statistics.
func TestProverDeterminism(t *testing.T) {
	run := func() string {
		p := New(axiom.SparseMatrix(), Options{})
		proof := p.Prove(SameSrc,
			pathexpr.MustParse("ncolE+"),
			pathexpr.MustParse("nrowE+ncolE+"))
		return fmt.Sprintf("%v/%+v", proof.Result, proof.Stats)
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic prover: %s vs %s", got, first)
		}
	}
}

func fmtWord(w []string) string {
	if len(w) == 0 {
		return "ε"
	}
	out := ""
	for _, s := range w {
		out += s
	}
	return out
}
