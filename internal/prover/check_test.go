package prover

import (
	"math/rand"
	"testing"

	"repro/internal/axiom"
	"repro/internal/pathexpr"
)

// proveAndCheck asserts a theorem is proved AND its derivation passes the
// independent checker.
func proveAndCheck(t *testing.T, p *Prover, form Form, x, y string) *Proof {
	t.Helper()
	proof := p.Prove(form, pathexpr.MustParse(x), pathexpr.MustParse(y))
	if proof.Result != Proved {
		t.Fatalf("Prove(%s, %s) = %v", x, y, proof.Result)
	}
	if err := p.CheckProof(proof); err != nil {
		t.Fatalf("CheckProof(%s <> %s): %v\n%s", x, y, err, proof.Render())
	}
	return proof
}

// TestCheckProofAcceptsTheCorpus: every proof the prover finds across the
// paper's query corpus passes independent re-validation.
func TestCheckProofAcceptsTheCorpus(t *testing.T) {
	llt := New(axiom.LeafLinkedBinaryTree(), Options{})
	proveAndCheck(t, llt, SameSrc, "L.L.N", "L.R.N")
	proveAndCheck(t, llt, SameSrc, "L.L", "L.R")
	proveAndCheck(t, llt, SameSrc, "ε", "(L|R|N)+")
	proveAndCheck(t, llt, SameSrc, "L.L.N.N", "L.L.N")
	proveAndCheck(t, llt, DiffSrc, "N", "N")

	sm := New(axiom.SparseMatrixCore(), Options{})
	proveAndCheck(t, sm, SameSrc, "ncolE+", "nrowE+ncolE+")
	proveAndCheck(t, sm, SameSrc, "ncolE.ncolE*", "nrowE+ncolE.ncolE*")

	full := New(axiom.SparseMatrix(), Options{})
	proveAndCheck(t, full, SameSrc, "ncolE+", "nrowE+ncolE+")
	proveAndCheck(t, full, SameSrc, "nrowE+", "ncolE+nrowE+")
	proveAndCheck(t, full, DiffSrc, "relem.ncolE*", "relem.ncolE*")

	list := New(axiom.SinglyLinkedList("link"), Options{})
	proveAndCheck(t, list, SameSrc, "ε", "link+")
	proveAndCheck(t, list, SameSrc, "link", "link.link+")

	ring := New(axiom.RingOf("next", 3), Options{})
	proveAndCheck(t, ring, SameSrc, "next", "next.next")

	tree := New(axiom.BinaryTree("l", "r"), Options{})
	proveAndCheck(t, tree, SameSrc, "l.(l|r)*", "r.(l|r)*")
	proveAndCheck(t, tree, SameSrc, "l.(l|r)", "r")

	rt := New(axiom.TwoDRangeTree(), Options{})
	proveAndCheck(t, rt, SameSrc, "L.aux.(l|r|n)*", "R.aux.(l|r|n)*")
}

// TestCheckProofRejectsTampering: mutating a valid derivation in any
// load-bearing way must be detected.
func TestCheckProofRejectsTampering(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	fresh := func() *Proof {
		q := New(axiom.LeafLinkedBinaryTree(), Options{})
		return q.Prove(SameSrc, pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	}

	// Tamper 1: change the derived goal.
	pf := fresh()
	pf.Root.X = pathexpr.MustParse("L.L.N.N")
	if err := p.CheckProof(pf); err == nil {
		t.Error("goal tampering accepted")
	}

	// Tamper 2: change a suffix split to one no axiom covers.
	pf = fresh()
	pf.Root.SuffixI, pf.Root.SuffixJ = 3, 3
	if err := p.CheckProof(pf); err == nil {
		t.Error("suffix tampering accepted")
	}

	// Tamper 3: drop the case-D subproof.
	pf = fresh()
	pf.Root.Children = nil
	if err := p.CheckProof(pf); err == nil {
		t.Error("missing subproof accepted")
	}

	// Tamper 4: claim a rule that does not apply.
	pf = fresh()
	pf.Root.Rule = RuleTrivial
	if err := p.CheckProof(pf); err == nil {
		t.Error("bogus trivial rule accepted")
	}

	// Tamper 5: swap in a subproof of the wrong goal.
	pf = fresh()
	other := fresh()
	pf.Root.Children = []*Step{other.Root}
	if err := p.CheckProof(pf); err == nil {
		t.Error("mismatched subproof accepted")
	}

	// Tamper 6: a direct axiom claim with no applicable axiom.
	pf = fresh()
	pf.Root.Rule = RuleAxiom
	pf.Root.By = "A1"
	pf.Root.Children = nil
	if err := p.CheckProof(pf); err == nil {
		t.Error("bogus axiom application accepted")
	}
}

// TestCheckProofRejectsUnprovedAndForeign: only Proved results check, and a
// proof is tied to its axiom set.
func TestCheckProofRejectsUnprovedAndForeign(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	failed := p.Prove(SameSrc, pathexpr.MustParse("L.L.N.N"), pathexpr.MustParse("L.R.N"))
	if err := p.CheckProof(failed); err == nil {
		t.Error("unproved result accepted")
	}

	// A valid leaf-linked-tree proof must not check under unrelated axioms.
	good := p.Prove(SameSrc, pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	stranger := New(axiom.SinglyLinkedList("next"), Options{})
	if err := stranger.CheckProof(good); err == nil {
		t.Error("foreign proof accepted under the wrong axioms")
	}
}

// TestCheckProofPropertyRandomTheorems: every random theorem the prover
// proves over the leaf-linked tree axioms passes the checker.
func TestCheckProofPropertyRandomTheorems(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	fields := []string{"L", "R", "N"}
	checked := 0
	for i := 0; i < 300; i++ {
		x := randPath(rng, fields, 3)
		y := randPath(rng, fields, 3)
		for _, form := range []Form{SameSrc, DiffSrc} {
			proof := p.Prove(form, x, y)
			if proof.Result != Proved {
				continue
			}
			if err := p.CheckProof(proof); err != nil {
				t.Fatalf("checker rejected a found proof of %v / %v: %v\n%s", x, y, err, proof.Render())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no proofs generated; test has no power")
	}
	t.Logf("independently re-validated %d proofs", checked)
}

// TestVacuousAndRenderCoverage exercises the vacuous rule, the Axioms
// accessor, and every rule's rendering.
func TestVacuousAndRenderCoverage(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	if p.Axioms().Len() != 4 {
		t.Error("Axioms accessor lost the set")
	}
	// ∅ components are vacuously disjoint from anything.
	vac := p.Prove(SameSrc, pathexpr.Empty{}, pathexpr.MustParse("L"))
	if vac.Result != Proved {
		t.Fatalf("empty language side = %v, want proved", vac.Result)
	}
	if err := p.CheckProof(vac); err != nil {
		t.Fatalf("vacuous proof rejected: %v", err)
	}
	// Render every rule the corpus produces, exercising describe().
	proofs := []*Proof{
		vac,
		p.Prove(DiffSrc, pathexpr.Eps, pathexpr.Eps),
		p.Prove(SameSrc, pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N")),
		p.Prove(SameSrc, pathexpr.MustParse("L.L.N.N"), pathexpr.MustParse("L.L.N")),
		p.Prove(SameSrc, pathexpr.MustParse("ε"), pathexpr.MustParse("(L|R|N)+")),
	}
	sm := New(axiom.SparseMatrixCore(), Options{})
	proofs = append(proofs,
		sm.Prove(SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+ncolE+")),
		sm.Prove(SameSrc, pathexpr.MustParse("ncolE*"), pathexpr.MustParse("nrowE+ncolE+")),
	)
	alts := New(axiom.MustParseSet("alt", "forall p, p.a <> p.b\nforall p, p.a <> p.c"), Options{})
	proofs = append(proofs, alts.Prove(SameSrc, pathexpr.MustParse("a"), pathexpr.MustParse("b|c")))
	for i, pf := range proofs {
		if pf.Result != Proved {
			t.Fatalf("proof %d unexpectedly %v", i, pf.Result)
		}
		if out := pf.Render(); len(out) == 0 {
			t.Errorf("proof %d renders empty", i)
		}
	}
	// Unknown rule/result strings.
	if Rule(99).String() != "unknown" || Result(99).String() != "unknown" {
		t.Error("unknown enum strings")
	}
}
