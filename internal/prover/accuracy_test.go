package prover

import (
	"testing"

	"repro/internal/axiom"
	"repro/internal/pathexpr"
)

// TestAccuracyGrowsWithAxioms measures the paper's central qualitative
// claim — "the test is general since its accuracy grows with the accuracy
// of the axioms" — on the leaf-linked tree: dropping any single axiom from
// Figure 3's set can only shrink the set of short-path pairs the prover
// decides, and each axiom is load-bearing (its removal loses at least one
// decision).
func TestAccuracyGrowsWithAxioms(t *testing.T) {
	words := allWords([]string{"L", "R", "N"}, 3)
	countDecided := func(set *axiom.Set) (int, map[string]bool) {
		p := New(set, Options{})
		decided := map[string]bool{}
		n := 0
		for _, w1 := range words {
			for _, w2 := range words {
				x, y := pathexpr.FromWord(w1), pathexpr.FromWord(w2)
				if p.Prove(SameSrc, x, y).Result == Proved {
					key := fmtWord(w1) + "|" + fmtWord(w2)
					decided[key] = true
					n++
				}
			}
		}
		return n, decided
	}

	full := axiom.LeafLinkedBinaryTree()
	fullCount, fullSet := countDecided(full)
	t.Logf("full axiom set decides %d of %d pairs", fullCount, len(words)*len(words))
	if fullCount == 0 {
		t.Fatal("full set decides nothing; no power")
	}

	for drop := 0; drop < full.Len(); drop++ {
		reduced := &axiom.Set{StructName: full.StructName}
		for i, a := range full.Axioms {
			if i != drop {
				reduced.Add(a)
			}
		}
		count, decided := countDecided(reduced)
		t.Logf("without %s: %d pairs decided", full.Axioms[drop].Name, count)
		if count >= fullCount {
			t.Errorf("dropping %s did not lose any decision; the axiom carries no weight on this corpus",
				full.Axioms[drop].Name)
		}
		// Monotonicity: a smaller axiom set must not decide pairs the full
		// set cannot (decisions grow with axioms).
		for key := range decided {
			if !fullSet[key] {
				t.Errorf("without %s the prover decides %s which the full set does not — non-monotone",
					full.Axioms[drop].Name, key)
			}
		}
	}
}

// TestNaryTreeAxioms: quadtrees and octrees are handled by the generalized
// tree description.
func TestNaryTreeAxioms(t *testing.T) {
	quad := axiom.NaryTree("c0", "c1", "c2", "c3")
	p := New(quad, Options{})
	for _, c := range []struct {
		x, y string
		want Result
	}{
		{"c0", "c3", Proved},
		{"c0.c1", "c0.c2", Proved},
		{"c1.(c0|c1|c2|c3)*", "c2.(c0|c1|c2|c3)*", Proved},
		{"ε", "(c0|c1|c2|c3)+", Proved},
		{"c0.c1", "c0.c1", NotProved},
	} {
		got := p.Prove(SameSrc, pathexpr.MustParse(c.x), pathexpr.MustParse(c.y)).Result
		if got != c.want {
			t.Errorf("quadtree %s <> %s: %v, want %v", c.x, c.y, got, c.want)
		}
	}

	// Octree: 8 children; the pairwise sibling axioms scale quadratically.
	oct := axiom.NaryTree("o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7")
	if oct.Len() != 8*7/2+2 {
		t.Errorf("octree axiom count = %d, want %d", oct.Len(), 8*7/2+2)
	}
	po := New(oct, Options{})
	proof := po.Prove(SameSrc, pathexpr.MustParse("o0.o7"), pathexpr.MustParse("o7.o0"))
	if proof.Result != Proved {
		t.Errorf("octree disjoint subtrees: %v", proof.Result)
	}
	if err := po.CheckProof(proof); err != nil {
		t.Errorf("octree proof failed checking: %v", err)
	}
}

// TestSkipListQueries: the skip-list axioms prove loop-carried independence
// of a base-chain walk, and a concrete skip list satisfies them.
func TestSkipListQueries(t *testing.T) {
	set := axiom.SkipList("n0", "n1", "n2")
	p := New(set, Options{})
	for _, c := range []struct {
		x, y string
		want Result
	}{
		{"ε", "n0+", Proved},         // base walk advances
		{"ε", "(n0|n1|n2)+", Proved}, // any mixed walk advances
		{"n0", "n0.n0+", Proved},     // later iterations differ
		{"n1", "n0.n0", NotProved},   // one express hop CAN equal two base hops
		{"n2", "n1.n1", NotProved},   // levels interleave through shared vertices
	} {
		got := p.Prove(SameSrc, pathexpr.MustParse(c.x), pathexpr.MustParse(c.y)).Result
		if got != c.want {
			t.Errorf("skip list %s <> %s: %v, want %v", c.x, c.y, got, c.want)
		}
	}
}
