package pathexpr_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/pathexpr"
)

// internCorpus is a set of expression texts spanning every node kind, the
// flat/nested rendering aliases, and the shapes the prover manufactures
// (trailing closures, alternations, induction-step concatenations).
var internCorpus = []string{
	"ε",
	"L",
	"L.R",
	"L.R.N",
	"L|R",
	"R|L",
	"(L|R).N",
	"L*",
	"L+",
	"(L.R)+",
	"(L|R)*",
	"L.L*",
	"N.(L|R)+.val",
	"ncolE+",
	"nrowE+.ncolE*",
	"(a|b|c).(a|b|c)",
	"a.b.c.d.e",
	"((a.b).c)|(a.(b.c))",
}

// TestInternIdentityMatchesString pins the interner's identity invariant:
// two expressions intern to the same node exactly when their canonical
// renderings are equal.  That is the equality every downstream cache used
// to decide with string keys, so it is what makes the ID-keyed refactor
// behavior-preserving.
func TestInternIdentityMatchesString(t *testing.T) {
	for _, sa := range internCorpus {
		for _, sb := range internCorpus {
			a, b := pathexpr.MustParse(sa), pathexpr.MustParse(sb)
			na, nb := pathexpr.Intern(a), pathexpr.Intern(b)
			sameNode := na == nb
			sameStr := a.String() == b.String()
			if sameNode != sameStr {
				t.Errorf("Intern(%q)==Intern(%q) is %v, String equality is %v", sa, sb, sameNode, sameStr)
			}
			if sameNode != (na.ID() == nb.ID()) {
				t.Errorf("node identity and ID identity disagree for %q vs %q", sa, sb)
			}
		}
	}
}

// TestInternAliasesFlatAndNested: String conflates flat and nested
// associations of concatenation and alternation, so structurally distinct
// trees with one rendering must alias to one node.
func TestInternAliasesFlatAndNested(t *testing.T) {
	a, b, c := pathexpr.F("a"), pathexpr.F("b"), pathexpr.F("c")
	flat := pathexpr.Concat{Parts: []pathexpr.Expr{a, b, c}}
	nested := pathexpr.Concat{Parts: []pathexpr.Expr{a, pathexpr.Concat{Parts: []pathexpr.Expr{b, c}}}}
	if flat.String() != nested.String() {
		t.Fatalf("expected one rendering, got %q vs %q", flat, nested)
	}
	if pathexpr.Intern(flat) != pathexpr.Intern(nested) {
		t.Error("flat and nested concatenations render identically but interned to distinct nodes")
	}
	altFlat := pathexpr.Alt{Alts: []pathexpr.Expr{a, b, c}}
	altNested := pathexpr.Alt{Alts: []pathexpr.Expr{a, pathexpr.Alt{Alts: []pathexpr.Expr{b, c}}}}
	if pathexpr.Intern(altFlat) != pathexpr.Intern(altNested) {
		t.Error("flat and nested alternations render identically but interned to distinct nodes")
	}
}

// TestInternNodeMetadata: the node carries the rendering, size, compact
// rendering and simplified form of its expression, computed once.
func TestInternNodeMetadata(t *testing.T) {
	for _, src := range internCorpus {
		e := pathexpr.MustParse(src)
		n := pathexpr.Intern(e)
		if n.String() != e.String() {
			t.Errorf("%q: node string %q != expr string %q", src, n.String(), e.String())
		}
		if n.Size() != e.Size() {
			t.Errorf("%q: node size %d != expr size %d", src, n.Size(), e.Size())
		}
		for i := 0; i < 2; i++ { // computed, then cached
			if got, want := n.Compact(), pathexpr.Compact(e); got != want {
				t.Errorf("%q: Compact() = %q, want %q", src, got, want)
			}
		}
		want := pathexpr.Simplify(e).String()
		if got := n.Simplified().String(); got != want {
			t.Errorf("%q: Simplified() = %q, want %q", src, got, want)
		}
		// Simplified is a fixpoint: one more hop must be the identity.
		if s := n.Simplified(); s.Simplified() != s {
			t.Errorf("%q: Simplified() is not a fixpoint of itself", src)
		}
		for i := 0; i < 2; i++ { // computed, then cached
			w, ok := n.Word()
			if ww, wok := pathexpr.Word(e); ok != wok || fmt.Sprint(w) != fmt.Sprint(ww) {
				t.Errorf("%q: Word() = %v %v, want %v %v", src, w, ok, ww, wok)
			}
		}
	}
	if pathexpr.Intern(nil) != pathexpr.Intern(pathexpr.Eps) {
		t.Error("Intern(nil) must alias Intern(ε)")
	}
}

// TestSingletonRules: each structural rule behind Node.Singleton, on trees
// built without the simplifying constructors (the automata package checks
// the facts against compiled DFAs on random expressions).
func TestSingletonRules(t *testing.T) {
	a, b := pathexpr.F("a"), pathexpr.F("b")
	cat := func(p ...pathexpr.Expr) pathexpr.Expr { return pathexpr.Concat{Parts: p} }
	alt := func(p ...pathexpr.Expr) pathexpr.Expr { return pathexpr.Alt{Alts: p} }
	for _, c := range []struct {
		e    pathexpr.Expr
		want pathexpr.Count
		word string
	}{
		{pathexpr.Empty{}, pathexpr.NoWord, ""},
		{pathexpr.Eps, pathexpr.OneWord, "[]"},
		{cat(a, b), pathexpr.OneWord, "[a b]"},
		{cat(pathexpr.Star{Inner: a}, pathexpr.Empty{}), pathexpr.NoWord, ""},     // ∅ absorbs
		{cat(a, pathexpr.Star{Inner: a}), pathexpr.ManyWords, ""},                 // a.a*
		{alt(a, cat(pathexpr.Eps, a)), pathexpr.OneWord, "[a]"},                   // equal words merge
		{alt(a, pathexpr.Empty{}), pathexpr.OneWord, "[a]"},                       // ∅ adds nothing
		{alt(a, b), pathexpr.ManyWords, ""},                                       // distinct words
		{cat(b, pathexpr.Star{Inner: pathexpr.Empty{}}), pathexpr.OneWord, "[b]"}, // (∅)* is ε
		{cat(b, pathexpr.Star{Inner: pathexpr.Eps}), pathexpr.OneWord, "[b]"},     // (ε)* is ε
		{cat(b, pathexpr.Plus{Inner: pathexpr.Eps}), pathexpr.OneWord, "[b]"},     // ε+ is ε
		{cat(b, pathexpr.Plus{Inner: pathexpr.Empty{}}), pathexpr.NoWord, ""},     // ∅+ is ∅
		{pathexpr.Plus{Inner: a}, pathexpr.ManyWords, ""},
	} {
		n := pathexpr.Intern(c.e)
		got, w := n.Singleton()
		if word := fmt.Sprint(w); got != c.want || got == pathexpr.OneWord && word != c.word {
			t.Errorf("%v: Singleton() = %v %s, want %v %s", c.e, got, word, c.want, c.word)
		}
	}
}

// FuzzIntern cross-checks the interner against the language semantics:
// same node ⇒ same language (decided by DFA equivalence), distinct nodes ⇒
// distinct canonical strings.  (Distinct nodes may still share a language —
// L|R and R|L — which is exactly why caches key on renderings, not
// languages.)
func FuzzIntern(f *testing.F) {
	for i, sa := range internCorpus {
		f.Add(sa, internCorpus[(i+1)%len(internCorpus)])
	}
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, errA := pathexpr.Parse(sa)
		b, errB := pathexpr.Parse(sb)
		if errA != nil || errB != nil {
			t.Skip()
		}
		na, nb := pathexpr.Intern(a), pathexpr.Intern(b)
		if (na == nb) != (a.String() == b.String()) {
			t.Fatalf("identity invariant violated for %q vs %q", sa, sb)
		}
		if na == nb {
			// Compiled apart: a cache keyed by node would hand b a's DFA.
			alpha := automata.AlphabetOf(a, b)
			da, errA := automata.Compile(a, alpha)
			db, errB := automata.Compile(b, alpha)
			if errA != nil || errB != nil {
				t.Skip() // state limit; no verdict to check
			}
			if !da.Equivalent(db) {
				t.Fatalf("%q and %q share a node but denote different languages", sa, sb)
			}
		} else if na.String() == nb.String() {
			t.Fatalf("distinct nodes for %q and %q share the rendering %q", sa, sb, na.String())
		}
	})
}

// TestInternRace hammers one interner from 8 goroutines with overlapping
// expression sets and checks every goroutine resolved each text to the same
// node.  Run under -race this is the interner's concurrency test.
func TestInternRace(t *testing.T) {
	const goroutines = 8
	const rounds = 200
	in := pathexpr.NewInterner()
	results := make([][]*pathexpr.Node, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nodes := make([]*pathexpr.Node, 0, rounds*len(internCorpus))
			for r := 0; r < rounds; r++ {
				for _, src := range internCorpus {
					e := pathexpr.MustParse(src)
					n := in.Intern(e)
					nodes = append(nodes, n)
					if r == 0 && g%2 == 0 {
						n.Simplified() // race the lazy simplification too
					}
				}
			}
			results[g] = nodes
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d interned item %d to a different node", g, i)
			}
		}
	}
	if got, want := in.Len(), len(internCorpus); got > want {
		t.Errorf("interner holds %d nodes for %d distinct texts", got, want)
	}
}

// TestSimplifyIdempotentAndDeterministic: Simplify is a normal form —
// applying it twice changes nothing — and is deterministic across repeated
// applications to independently parsed copies (the Or dedup by interned
// identity must preserve first-occurrence ordering).
func TestSimplifyIdempotentAndDeterministic(t *testing.T) {
	for _, src := range internCorpus {
		once := pathexpr.Simplify(pathexpr.MustParse(src))
		twice := pathexpr.Simplify(once)
		if !pathexpr.Equal(once, twice) {
			t.Errorf("%q: Simplify not idempotent: %q then %q", src, once, twice)
		}
		again := pathexpr.Simplify(pathexpr.MustParse(src))
		if once.String() != again.String() {
			t.Errorf("%q: Simplify not deterministic: %q vs %q", src, once, again)
		}
	}
}

// TestOrDedupIdentity: Or removes duplicate alternatives by interned
// identity, keeping the first occurrence of each, including duplicates that
// arrive as structurally distinct trees with one rendering.
func TestOrDedupIdentity(t *testing.T) {
	a, b := pathexpr.F("a"), pathexpr.F("b")
	got := pathexpr.Or(a, b, a, pathexpr.Or(b, a))
	if got.String() != "a|b" {
		t.Errorf("Or(a,b,a,(b|a)) = %q, want %q", got, "a|b")
	}
	// A nested concat duplicates a flat one under String; Or must see them
	// as one alternative.
	flat := pathexpr.Concat{Parts: []pathexpr.Expr{a, b}}
	nested := pathexpr.Concat{Parts: []pathexpr.Expr{pathexpr.Concat{Parts: []pathexpr.Expr{a}}, b}}
	got = pathexpr.Or(flat, nested)
	if got.String() != "a.b" {
		t.Errorf("Or(flat, nested) = %q, want single alternative %q", got, "a.b")
	}
	// More than 8 distinct alternatives exercises the seen-buffer spill.
	many := make([]pathexpr.Expr, 0, 24)
	for i := 0; i < 12; i++ {
		f := pathexpr.F(fmt.Sprintf("f%d", i))
		many = append(many, f, f)
	}
	out, ok := pathexpr.Or(many...).(pathexpr.Alt)
	if !ok || len(out.Alts) != 12 {
		t.Errorf("Or over 12 duplicated fields kept %d alternatives, want 12", len(out.Alts))
	}
}
