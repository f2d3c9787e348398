package analysis

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/prover"
)

// TestUnknownHandlesFallback: two pointers with no common handle (separate
// unknown parameters) still produce a query under the unknown-relation
// form; distinct data fields answer No structurally, and same fields over
// provably-position-distinct paths answer No via the two-proof rule.
func TestUnknownHandlesFallback(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	int g;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};
void h(struct Node *a, struct Node *b) {
	struct Node *p;
	struct Node *q;
	p = a->link;
	q = b->link;
S:	p->f = 1;
T:	q->g = 2;
}
`
	prog := lang.MustParse(src)
	res, err := Analyze(prog, "h", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("queries = %d, want 1", len(qs))
	}
	if qs[0].Relation != core.UnknownHandles {
		t.Fatalf("relation = %v, want UnknownHandles", qs[0].Relation)
	}
	tester := core.NewTester(res.Axioms, prover.Options{})
	// Distinct fields f and g: structurally independent regardless of
	// aliasing.
	if out := tester.DepTest(qs[0]); out.Result != core.No {
		t.Errorf("distinct fields across unknown handles = %v, want No", out.Result)
	}
}

// TestUnknownHandlesSameFieldIsMaybe: same field, unknown anchors, aliasing
// possible — must stay Maybe.
func TestUnknownHandlesSameFieldIsMaybe(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};
void h(struct Node *a, struct Node *b) {
S:	a->f = 1;
T:	b->f = 2;
}
`
	prog := lang.MustParse(src)
	res, err := Analyze(prog, "h", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(res.Axioms, prover.Options{})
	if out := tester.DepTest(qs[0]); out.Result != core.Maybe {
		t.Errorf("a->f vs b->f with unknown relation = %v, want Maybe (a may equal b)", out.Result)
	}
}

// TestHandleNaming: repeated reassignment numbers handles _hp, _hp2, _hp3.
func TestHandleNaming(t *testing.T) {
	src := `
struct Node { struct Node *n; int d; };
void f(struct Node *a) {
	struct Node *p;
	p = a;
	p = a->n;
X:	p->d = 1;
}
`
	prog := lang.MustParse(src)
	res, err := Analyze(prog, "f", Options{})
	if err != nil {
		t.Fatal(err)
	}
	apm := res.APM("X")
	if !slices.Contains(apm.Handles(), "_hp2") {
		t.Errorf("expected second handle _hp2:\n%s", apm)
	}
	if slices.Contains(apm.Handles(), "_hp") {
		t.Errorf("first handle should be dead:\n%s", apm)
	}
}

// TestSequentialLoops: two separate loops over the same list — the second
// loop re-anchors and analyzes independently.
func TestSequentialLoops(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};
void g(struct Node *head) {
	struct Node *q;
	q = head;
	while (q != NULL) {
A:		q->f = 1;
		q = q->link;
	}
	q = head;
	while (q != NULL) {
B:		q->f = 2;
		q = q->link;
	}
}
`
	prog := lang.MustParse(src)
	res, err := Analyze(prog, "g", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(res.Axioms, prover.Options{})
	for _, label := range []string{"A", "B"} {
		qs, err := res.LoopCarriedQueries(label)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, q := range qs {
			if out := tester.DepTest(q); out.Result != core.No {
				t.Errorf("%s loop-carried = %v, want No", label, out.Result)
			}
		}
	}
	// Both accesses anchor at head with widened paths; the cross-loop
	// same-element pairs correctly stay undecided (iteration counts may
	// coincide).
	qs, err := res.QueriesBetween("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range qs {
		if strings.Contains(q.S.Handle, "head") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a head-anchored query, got %+v", qs)
	}
}

// TestWhileInsideIf: loop widening under a conditional.
func TestWhileInsideIf(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};
void g(struct Node *head, int c) {
	struct Node *q;
	q = head;
	if (c > 0) {
		while (q != NULL) {
U:			q->f = 1;
			q = q->link;
		}
	}
X:	head->f = 2;
}
`
	prog := lang.MustParse(src)
	res, err := Analyze(prog, "g", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.LoopCarriedQueries("U")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(res.Axioms, prover.Options{})
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.No {
			t.Errorf("conditional loop-carried = %v, want No", out.Result)
		}
	}
	// After the if, head's own access at X still has its anchor.
	accs := res.AccessesAt("X")
	if len(accs) != 1 || len(accs[0].Paths) == 0 {
		t.Fatalf("accesses at X: %+v", accs)
	}
}
