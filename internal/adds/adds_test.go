package adds

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/axiom"
	"repro/internal/heap"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

const llTreeSrc = `
structure LLBinaryTree {
	dimension down is tree;
	dimension leaves is chain;
	field L along down;
	field R along down;
	field N along leaves;
	acyclic;
}
`

func TestParseLeafLinkedTree(t *testing.T) {
	s, err := Parse(llTreeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "LLBinaryTree" {
		t.Errorf("name = %q", s.Name)
	}
	if len(s.Dimensions) != 2 {
		t.Fatalf("dimensions = %d", len(s.Dimensions))
	}
	down := s.Dimension("down")
	if down == nil || down.Kind != Tree || len(down.Fields) != 2 {
		t.Fatalf("down = %+v", down)
	}
	if !s.Acyclic {
		t.Error("acyclic lost")
	}
	if got := s.Fields(); len(got) != 3 {
		t.Errorf("fields = %v", got)
	}
}

// TestFigure3AxiomsFromADDS: the ADDS declaration of Figure 3's structure
// compiles to a set equivalent to the paper's four hand-written axioms —
// APT proves the same §3.3 facts from it.
func TestFigure3AxiomsFromADDS(t *testing.T) {
	set := MustParse(llTreeSrc).Axioms()
	if set.Len() != 4 {
		t.Fatalf("generated %d axioms, want 4:\n%s", set.Len(), set)
	}
	p := prover.New(set, prover.Options{})
	for _, c := range []struct {
		x, y string
		want prover.Result
	}{
		{"L.L.N", "L.R.N", prover.Proved},
		{"L.L", "L.R", prover.Proved},
		{"ε", "(L|R|N)+", prover.Proved},
		{"L.L.N.N", "L.R.N", prover.NotProved},
	} {
		got := p.Prove(prover.SameSrc, pathexpr.MustParse(c.x), pathexpr.MustParse(c.y)).Result
		if got != c.want {
			t.Errorf("%s <> %s: %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// TestGeneratedAxiomsMatchHandWritten: the generated set proves exactly what
// Figure 3's hand-written set proves on a corpus of queries, and both hold
// on the same concrete structures.
func TestGeneratedAxiomsMatchHandWritten(t *testing.T) {
	gen := MustParse(llTreeSrc).Axioms()
	hand := axiom.LeafLinkedBinaryTree()

	pGen := prover.New(gen, prover.Options{})
	pHand := prover.New(hand, prover.Options{})
	queries := [][2]string{
		{"L", "R"}, {"L", "N"}, {"N", "N.N"}, {"L.N", "R.N"},
		{"(L|R)+", "ε"}, {"L.L.N", "L.R.N"}, {"N+", "ε"},
	}
	for _, q := range queries {
		x, y := pathexpr.MustParse(q[0]), pathexpr.MustParse(q[1])
		if g, h := pGen.Prove(prover.SameSrc, x, y).Result, pHand.Prove(prover.SameSrc, x, y).Result; g != h {
			t.Errorf("%s <> %s: generated %v, hand-written %v", q[0], q[1], g, h)
		}
	}

	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g, _ := heap.RandomLeafLinkedTree(rng, 1+rng.Intn(12))
		if err := g.CheckSet(gen); err != nil {
			t.Fatalf("generated axioms fail on conforming tree: %v", err)
		}
	}
}

const sparseSrc = `
structure SparseElems {
	dimension row is chain;
	dimension col is chain;
	field ncolE along row;
	field nrowE along col;
	interacting row col;
	acyclic;
}
`

// TestTheoremTFromADDS: the ADDS description of the sparse element
// substructure generates axioms sufficient for §5's Theorem T.
func TestTheoremTFromADDS(t *testing.T) {
	set := MustParse(sparseSrc).Axioms()
	p := prover.New(set, prover.Options{})
	proof := p.Prove(prover.SameSrc,
		pathexpr.MustParse("ncolE+"),
		pathexpr.MustParse("nrowE+ncolE+"))
	if proof.Result != prover.Proved {
		t.Fatalf("Theorem T from ADDS axioms: %v\n%s\n%s", proof.Result, set, proof.Render())
	}
}

func TestRingDimension(t *testing.T) {
	set := MustParse(`
structure Ring {
	dimension around is ring;
	field next along around;
	acyclic;
}`).Axioms()
	// A ring dimension must not produce acyclicity over its own fields.
	p := prover.New(set, prover.Options{})
	if p.Prove(prover.SameSrc, pathexpr.Eps, pathexpr.MustParse("next+")).Result == prover.Proved {
		t.Fatal("ring dimension must not certify acyclicity")
	}
	// Injectivity survives.
	if p.Prove(prover.DiffSrc, pathexpr.F("next"), pathexpr.F("next")).Result != prover.Proved {
		t.Fatal("ring injectivity lost")
	}
	// A concrete ring satisfies the generated axioms.
	g, _ := heap.BuildRing(5, "next")
	if err := g.CheckSet(set); err != nil {
		t.Fatalf("ring violates generated axioms: %v", err)
	}
}

func TestMultiFieldDeclarationAndComments(t *testing.T) {
	s, err := Parse(`
structure T {
	dimension d is tree;   // children
	field a, b, c along d; // three children
	acyclic;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Dimension("d").Fields); got != 3 {
		t.Fatalf("fields = %d", got)
	}
	set := s.Axioms()
	// Pairwise sibling distinctness: 3 axioms + unshared + acyclic = 5.
	if set.Len() != 5 {
		t.Fatalf("generated %d axioms:\n%s", set.Len(), set)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no structure":     `dimension d is tree;`,
		"unknown kind":     `structure T { dimension d is blob; }`,
		"undeclared dim":   `structure T { field a along d; }`,
		"dup dimension":    `structure T { dimension d is tree; dimension d is chain; }`,
		"dup field":        `structure T { dimension d is tree; field a along d; field a along d; }`,
		"unterminated":     `structure T { dimension d is tree;`,
		"bad interacting":  `structure T { dimension d is tree; field a along d; interacting d d; }`,
		"missing semi":     `structure T { acyclic }`,
		"undeclared inter": `structure T { dimension d is chain; interacting d e; }`,
		"trailing":         `structure T { } garbage`,
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	s := MustParse(llTreeSrc)
	out := s.String()
	for _, want := range []string{"structure LLBinaryTree", "dimension down is tree", "field N along leaves", "acyclic;"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	reparsed, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if reparsed.Axioms().Key() != s.Axioms().Key() {
		t.Error("round trip changed the generated axioms")
	}
}
