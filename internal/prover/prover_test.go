package prover

import (
	"strings"
	"testing"

	"repro/internal/axiom"
	"repro/internal/pathexpr"
)

func mustProve(t *testing.T, p *Prover, x, y string) *Proof {
	t.Helper()
	proof := p.Prove(SameSrc, pathexpr.MustParse(x), pathexpr.MustParse(y))
	if proof.Result != Proved {
		t.Fatalf("Prove(%s, %s) = %v, want proved\n%s", x, y, proof.Result, proof.Render())
	}
	return proof
}

func mustFail(t *testing.T, p *Prover, x, y string) *Proof {
	t.Helper()
	proof := p.Prove(SameSrc, pathexpr.MustParse(x), pathexpr.MustParse(y))
	if proof.Result != NotProved {
		t.Fatalf("Prove(%s, %s) = %v, want not proved\n%s", x, y, proof.Result, proof.Render())
	}
	return proof
}

// TestSection33Proof reproduces the paper's worked example: with Figure 3's
// leaf-linked binary tree axioms, _hroot.LLN <> _hroot.LRN is provable, so T
// is not dependent on S.
func TestSection33Proof(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	proof := mustProve(t, p, "L.L.N", "L.R.N")
	text := proof.Render()
	// The derivation applies A3 to the N suffixes, then discharges the
	// prefixes LL vs LR using A1 (and A2).
	for _, want := range []string{"A3", "A1"} {
		if !strings.Contains(text, want) {
			t.Errorf("proof should mention %s:\n%s", want, text)
		}
	}
}

// TestSection33Variants covers the neighboring queries §2.4 discusses:
// root.LLNN vs root.LRN reach the same vertex in some tree, so no proof may
// exist; root.LLN vs root.LRN must be proved (Larus-Hilfinger cannot).
func TestSection33Variants(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	// LLNN and LRN can reach the same leaf (see Figure 3): unprovable.
	mustFail(t, p, "L.L.N.N", "L.R.N")
	// Identical paths are definitely aliased: unprovable.
	mustFail(t, p, "L.L.N", "L.L.N")
	// Different leaves of the N chain.
	mustProve(t, p, "L.L", "L.R")
	mustProve(t, p, "L", "R")
	// A leaf vs the vertex it N-links to.
	mustProve(t, p, "L.L.N.N", "L.L.N")
}

// TestCaseCPrefixEquality exercises case C: identical singleton prefixes
// with suffixes disjoint from the same source.
func TestCaseCPrefixEquality(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	// From the same vertex L.L, the suffix N (one hop) differs from ε by A4.
	proof := mustProve(t, p, "L.L.N", "L.L")
	if !strings.Contains(proof.Render(), "case C") && !strings.Contains(proof.Render(), "case D") {
		t.Errorf("expected a prefix-discharging case:\n%s", proof.Render())
	}
}

// TestTheoremT reproduces §5: with the three sparse-matrix axioms, the
// loop-carried theorem ∀hr, hr.ncolE+ <> hr.nrowE+ncolE+ is provable, which
// parallelizes loop L1 of factor.
func TestTheoremT(t *testing.T) {
	p := New(axiom.SparseMatrixCore(), Options{})
	proof := mustProve(t, p, "ncolE+", "nrowE+ncolE+")
	if proof.Stats.Inductions == 0 {
		t.Errorf("Theorem T should require Kleene induction:\n%s", proof.Render())
	}
	// The paper notes four initial cases because both paths end in '+'.
	if !strings.Contains(proof.Render(), "plus-induction") {
		t.Errorf("expected plus-induction in trace:\n%s", proof.Render())
	}
}

// TestTheoremTInnerLoop is the analogous theorem for the inner loop L2
// (columns instead of rows), provable with the full Appendix A set.
func TestTheoremTInnerLoop(t *testing.T) {
	p := New(axiom.SparseMatrix(), Options{})
	mustProve(t, p, "nrowE+", "ncolE+nrowE+")
}

// TestTheoremTFromFullAxioms checks Theorem T is also provable from the
// full twelve-axiom Appendix A description.
func TestTheoremTFromFullAxioms(t *testing.T) {
	p := New(axiom.SparseMatrix(), Options{})
	mustProve(t, p, "ncolE+", "nrowE+ncolE+")
}

// TestTheoremTStarForm uses the paper's original star spelling
// ncolE(ncolE)* vs (nrowE)+ncolE(ncolE)*.
func TestTheoremTStarForm(t *testing.T) {
	p := New(axiom.SparseMatrixCore(), Options{})
	mustProve(t, p, "ncolE.ncolE*", "nrowE+ncolE.ncolE*")
}

// TestSparseMatrixRowHeaderDisjointness exercises the Appendix A header
// axioms: distinct row headers reach disjoint row lists.
func TestSparseMatrixRowHeaderDisjointness(t *testing.T) {
	p := New(axiom.SparseMatrix(), Options{})
	proof := p.Prove(DiffSrc,
		pathexpr.MustParse("relem.ncolE*"),
		pathexpr.MustParse("relem.ncolE*"))
	if proof.Result != Proved {
		t.Fatalf("distinct row headers should have disjoint rows:\n%s", proof.Render())
	}
}

func TestDiffSrcTrivial(t *testing.T) {
	p := New(axiom.NewSet("empty"), Options{})
	proof := p.Prove(DiffSrc, pathexpr.Eps, pathexpr.Eps)
	if proof.Result != Proved {
		t.Fatalf("∀h<>k, h.ε <> k.ε should be trivially proved: %v", proof.Result)
	}
	same := p.Prove(SameSrc, pathexpr.Eps, pathexpr.Eps)
	if same.Result != NotProved {
		t.Fatalf("∀h, h.ε <> h.ε must not be provable: %v", same.Result)
	}
}

func TestNoAxiomsMeansNoProofs(t *testing.T) {
	p := New(axiom.NewSet("none"), Options{})
	mustFail(t, p, "L", "R")
	mustFail(t, p, "a+", "b+")
}

// TestLinkedListLoopCarried is Figure 1's right fragment: iterations write
// q->f where q advances by link each iteration; iteration i vs j>i accesses
// are h.ε vs h.link+, provable from list axioms.
func TestLinkedListLoopCarried(t *testing.T) {
	p := New(axiom.SinglyLinkedList("link"), Options{})
	mustProve(t, p, "ε", "link+")
	mustProve(t, p, "link", "link.link+")
}

// TestCircularListLoopCarried: without the acyclicity axiom the same
// theorem must not be provable — the list may wrap.
func TestCircularListLoopCarried(t *testing.T) {
	p := New(axiom.CircularList("link"), Options{})
	mustFail(t, p, "ε", "link+")
}

// TestRingEquality exercises the equality-axiom machinery: in a ring of
// three vertices, p.next and p.next² are distinct, while p.next and p.next⁴
// coincide.
func TestRingEquality(t *testing.T) {
	p := New(axiom.RingOf("next", 3), Options{})
	mustProve(t, p, "next", "next.next")
	mustFail(t, p, "next", "next.next.next.next")
	if !p.DefinitelyAliased(pathexpr.Intern(pathexpr.MustParse("next")), pathexpr.Intern(pathexpr.MustParse("next.next.next.next"))) {
		t.Error("next ≡ next⁴ in a 3-ring should be a definite alias")
	}
	if p.DefinitelyAliased(pathexpr.Intern(pathexpr.MustParse("next")), pathexpr.Intern(pathexpr.MustParse("next.next"))) {
		t.Error("next and next² are distinct in a 3-ring")
	}
}

func TestDefinitelyAliased(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	if !p.DefinitelyAliased(pathexpr.Intern(pathexpr.MustParse("L.L.N")), pathexpr.Intern(pathexpr.MustParse("L.L.N"))) {
		t.Error("identical words must be definitely aliased")
	}
	if p.DefinitelyAliased(pathexpr.Intern(pathexpr.MustParse("L*")), pathexpr.Intern(pathexpr.MustParse("L*"))) {
		t.Error("non-word paths are never definitely aliased")
	}
}

// TestBinaryTreeClassics: the standard tree disjointness facts.
func TestBinaryTreeClassics(t *testing.T) {
	p := New(axiom.BinaryTree("l", "r"), Options{})
	mustProve(t, p, "l", "r")
	mustProve(t, p, "l.l", "r.r")
	mustProve(t, p, "l.(l|r)*", "r.(l|r)*") // whole subtrees are disjoint
	mustProve(t, p, "ε", "(l|r)+")          // acyclicity
	mustFail(t, p, "l.l", "l.l")
}

// TestDoublyLinkedList: forward and backward chains.
func TestDoublyLinkedList(t *testing.T) {
	p := New(axiom.DoublyLinkedList("next", "prev"), Options{})
	mustProve(t, p, "ε", "next+")
	mustProve(t, p, "next", "prev")
	// next.prev may return to the origin: not provable (and indeed false).
	mustFail(t, p, "ε", "next.prev")
}

// TestRangeTree2D: inner trees hanging off distinct leaves are disjoint.
func TestRangeTree2D(t *testing.T) {
	p := New(axiom.TwoDRangeTree(), Options{})
	mustProve(t, p, "L.N.aux.l", "L.N.aux.r")
	mustProve(t, p, "L.aux.(l|r)*", "R.aux.(l|r)*")
	mustFail(t, p, "L.aux.l.n.n", "L.aux.r.n")
}

// TestAltSplit: alternation components that no single axiom covers must be
// split and proved per branch.
func TestAltSplit(t *testing.T) {
	p := New(axiom.MustParseSet("alt", `
		forall p, p.a <> p.b
		forall p, p.a <> p.c
	`), Options{})
	proof := mustProve(t, p, "a", "b|c")
	if !strings.Contains(proof.Render(), "alt-split") {
		t.Errorf("expected alt-split:\n%s", proof.Render())
	}
}

func TestExhaustedOnTinyBudget(t *testing.T) {
	p := New(axiom.SparseMatrixCore(), Options{MaxSteps: 3})
	proof := p.Prove(SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+ncolE+"))
	if proof.Result != Exhausted {
		t.Fatalf("tiny budget should exhaust, got %v", proof.Result)
	}
}

func TestDepthLimitIsNotDefinitive(t *testing.T) {
	// With a depth too small to find the Theorem T proof, the result must be
	// NotProved or Exhausted, and a prover with normal limits must still
	// prove it: the depth cut reports a failed search, not a disproof.
	shallow := New(axiom.SparseMatrixCore(), Options{MaxDepth: 1})
	res := shallow.Prove(SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+ncolE+"))
	if res.Result == Proved {
		t.Fatal("depth-1 prover should not find the Theorem T proof")
	}
	deep := New(axiom.SparseMatrixCore(), Options{})
	mustProve(t, deep, "ncolE+", "nrowE+ncolE+")
}

// TestProofIndependentOfHistory: a proof depends on the axioms, the goal
// and the options alone, not on the searches its prover ran before.  One
// prover proves A, then B (which shares sub-goals with A), then A again;
// each proof must render, and count its search, exactly as a fresh
// prover's proof of the same goal.  Only the DFA compile count may differ:
// the prover's DFA cache keeps automata across searches by design.
func TestProofIndependentOfHistory(t *testing.T) {
	ax := axiom.SparseMatrixCore()
	goals := [][2]string{
		{"ncolE+", "nrowE+ncolE+"},
		{"ncolE.ncolE*", "nrowE+ncolE.ncolE*"},
		{"ncolE+", "nrowE+ncolE+"},
	}
	p := New(ax, Options{})
	for i, g := range goals {
		got := mustProve(t, p, g[0], g[1])
		want := mustProve(t, New(ax, Options{}), g[0], g[1])
		if got.Render() != want.Render() {
			t.Errorf("query %d (%s <> %s) after %d others renders\n%s\na fresh prover renders\n%s",
				i, g[0], g[1], i, got.Render(), want.Render())
		}
		gs, ws := got.Stats, want.Stats
		gs.DFACompiles, ws.DFACompiles = 0, 0
		if gs != ws {
			t.Errorf("query %d (%s <> %s) after %d others: stats %+v, a fresh prover's %+v",
				i, g[0], g[1], i, gs, ws)
		}
		if err := p.CheckProof(got); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
}

func TestSuffixOrderAblation(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{LongestSuffixFirst: true})
	mustProve(t, p, "L.L.N", "L.R.N")
}

func TestRenderShapes(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	proved := mustProve(t, p, "L", "R")
	if !strings.Contains(proved.Render(), "Theorem:") || !strings.Contains(proved.Render(), "∎") {
		t.Errorf("render missing frame:\n%s", proved.Render())
	}
	failed := mustFail(t, p, "L.L.N.N", "L.R.N")
	if !strings.Contains(failed.Render(), "No proof") {
		t.Errorf("failed render:\n%s", failed.Render())
	}
}

func TestFormString(t *testing.T) {
	if SameSrc.String() == DiffSrc.String() {
		t.Error("form strings must differ")
	}
	for _, r := range []Result{Proved, NotProved, Exhausted} {
		if r.String() == "unknown" {
			t.Errorf("missing string for %d", int(r))
		}
	}
}

// TestWordKey: a word's key is its fields each terminated by NUL, so words
// whose concatenations coincide ("ab" vs "a"."b") still get distinct keys.
func TestWordKey(t *testing.T) {
	for _, tc := range []struct {
		w    []string
		want string
	}{
		{nil, ""},
		{[]string{"next"}, "next\x00"},
		{[]string{"L", "L", "N"}, "L\x00L\x00N\x00"},
	} {
		if got := wordKey(tc.w); got != tc.want {
			t.Errorf("wordKey(%q) = %q, want %q", tc.w, got, tc.want)
		}
	}
	if wordKey([]string{"ab"}) == wordKey([]string{"a", "b"}) {
		t.Error("wordKey conflates [ab] with [a b]")
	}
}

// TestPrefixWordMatchesNode: the one word prefixesEqual reads from a
// prefix's components is the one its interned node reports, for every
// prefix of sides mixing fields, closures, alternatives, ε and ∅ — the
// components as a goal normalizes them and as they stand.
func TestPrefixWordMatchesNode(t *testing.T) {
	L, R := pathexpr.F("L"), pathexpr.F("R")
	sides := [][]pathexpr.Expr{
		{L, R, pathexpr.F("N")},
		{L, pathexpr.Alt{Alts: []pathexpr.Expr{L, L}}, R},
		{L, pathexpr.Star{Inner: pathexpr.Eps}, R, pathexpr.Plus{Inner: pathexpr.Eps}},
		{L, pathexpr.Star{Inner: pathexpr.Empty{}}, pathexpr.Plus{Inner: L}},
		{R, pathexpr.Empty{}, pathexpr.Star{Inner: L}},
		{pathexpr.Star{Inner: L}, pathexpr.Empty{}},
		{L, pathexpr.Alt{Alts: []pathexpr.Expr{L, R}}, R},
		pathexpr.Components(pathexpr.MustParse("L.(L|R)*.N+.L.R")),
	}
	for _, comps := range sides {
		for _, side := range [][]pathexpr.Expr{comps, normalize(comps)} {
			for k := 0; k <= len(side); k++ {
				want, ww := intern(side[:k]).Singleton()
				got, ok := prefixWord(side[:k])
				if ok != (want == pathexpr.OneWord) || ok && !wordsEqual(got, ww) {
					t.Errorf("prefix %s: word %v (%v), node says %v %v", expr(side[:k]), got, ok, want, ww)
				}
			}
		}
	}
}
