package analysis

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

const section33Src = `
struct LLBinaryTree {
	struct LLBinaryTree *L;
	struct LLBinaryTree *R;
	struct LLBinaryTree *N;
	int d;
	axioms {
		A1: forall p, p.L <> p.R;
		A2: forall p <> q, p.(L|R) <> q.(L|R);
		A3: forall p <> q, p.N <> q.N;
		A4: forall p, p.(L|R|N)+ <> p.eps;
	}
};

int subr(struct LLBinaryTree *root) {
	struct LLBinaryTree *p;
	struct LLBinaryTree *q;
	root = root->L;
	p = root->L;
	p = p->N;
S:	p->d = 100;
	p = root;
I:	q = root->R;
	q = q->N;
T:	return q->d;
}
`

func analyzeSection33(t *testing.T, opts Options) *Result {
	t.Helper()
	prog := lang.MustParse(section33Src)
	r, err := Analyze(prog, "subr", opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSection33_APMAtS reproduces the paper's first APM table: at S,
// _hroot anchors root via L and p via LLN, while _hp anchors p via N.
func TestSection33_APMAtS(t *testing.T) {
	r := analyzeSection33(t, Options{})
	apm := r.APM("S")
	if apm == nil {
		t.Fatal("no APM at S")
	}
	assertCell(t, apm, "_hroot", "root", "L")
	assertCell(t, apm, "_hroot", "p", "LLN")
	assertCell(t, apm, "_hp", "p", "N")
	if _, ok := apm.Lookup("_hp", "root"); ok {
		t.Error("_hp should not anchor root")
	}
}

// TestSection33_APMAtI reproduces the second table: after p = root the
// handle _hp is destroyed (it anchors nothing) and _hp2 appears with ε.
func TestSection33_APMAtI(t *testing.T) {
	r := analyzeSection33(t, Options{})
	apm := r.APM("I")
	if apm == nil {
		t.Fatal("no APM at I")
	}
	assertCell(t, apm, "_hroot", "p", "L")
	assertCell(t, apm, "_hp2", "p", "ε")
	if slices.Contains(apm.Handles(), "_hp") {
		t.Error("_hp should have been destroyed once p was reassigned")
	}
	// The paper's printed table blanks root's cell; the value L remains
	// correct (root has not moved since) and we keep it.
	assertCell(t, apm, "_hroot", "root", "L")
}

// TestSection33_APMAtT reproduces the third table: q reached via LRN from
// _hroot and via N from _hq.
func TestSection33_APMAtT(t *testing.T) {
	r := analyzeSection33(t, Options{})
	apm := r.APM("T")
	if apm == nil {
		t.Fatal("no APM at T")
	}
	assertCell(t, apm, "_hroot", "q", "LRN")
	assertCell(t, apm, "_hq", "q", "N")
	assertCell(t, apm, "_hp2", "p", "ε")
}

func assertCell(t *testing.T, apm *APM, h, v, want string) {
	t.Helper()
	p, ok := apm.Lookup(h, v)
	if !ok {
		t.Errorf("APM[%s][%s] missing, want %s\n%s", h, v, want, apm)
		return
	}
	if got := pathexpr.Compact(p); got != want {
		t.Errorf("APM[%s][%s] = %s, want %s", h, v, got, want)
	}
}

// TestSection33_DependenceDisproved is the paper's end-to-end result: the
// analysis finds the common handle _hroot, maps p to LLN and q to LRN, and
// APT proves T independent of S.
func TestSection33_DependenceDisproved(t *testing.T) {
	r := analyzeSection33(t, Options{})
	qs, err := r.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("got %d queries, want 1 (write at S vs read at T)", len(qs))
	}
	q := qs[0]
	if q.S.Handle != "_hroot" || q.T.Handle != "_hroot" {
		t.Errorf("common handle = %s/%s, want _hroot", q.S.Handle, q.T.Handle)
	}
	if got := pathexpr.Compact(q.S.Path); got != "LLN" {
		t.Errorf("S path = %s, want LLN", got)
	}
	if got := pathexpr.Compact(q.T.Path); got != "LRN" {
		t.Errorf("T path = %s, want LRN", got)
	}
	tester := core.NewTester(q.Axioms, prover.Options{})
	out := tester.DepTest(q)
	if out.Result != core.No {
		t.Fatalf("deptest = %v (%s), want No", out.Result, out.Reason)
	}
}

// TestFigure1_LoopCarried analyzes the list-update loop and disproves the
// loop-carried output dependence on U.
func TestFigure1_LoopCarried(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};

void update(struct Node *head) {
	struct Node *q;
	q = head;
	while (q != NULL) {
U:		q->f = fun();
		q = q->link;
	}
}
`
	prog := lang.MustParse(src)
	r, err := Analyze(prog, "update", Options{})
	if err != nil {
		t.Fatal(err)
	}
	accs := r.AccessesAt("U")
	if len(accs) != 1 || !accs[0].IsWrite {
		t.Fatalf("accesses at U = %+v", accs)
	}
	if len(accs[0].IterDeltas) != 1 {
		t.Fatalf("iteration deltas = %v, want one", accs[0].IterDeltas)
	}
	qs, err := r.LoopCarriedQueries("U")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(r.Axioms, prover.Options{})
	for _, q := range qs {
		out := tester.DepTest(q)
		if out.Result != core.No {
			t.Errorf("loop-carried query %v vs %v = %v, want No", q.S, q.T, out.Result)
		}
	}
	// The widened post-loop path of q survives the loop.
	if got, _ := accs[0].Paths.Get("_hhead"); got == nil || got.String() != "link*" {
		t.Errorf("q path from _hhead inside loop = %s, want link*", got)
	}
}

// TestFigure1_MallocBreaksInduction: if q is freshly allocated each
// iteration there is no induction variable and no loop-carried query.
func TestFigure1_MallocBreaksInduction(t *testing.T) {
	src := `
struct Node { struct Node *link; int f; };
void build(struct Node *head) {
	struct Node *q;
	while (head != NULL) {
		q = malloc(struct Node);
U:		q->f = fun();
	}
}
`
	prog := lang.MustParse(src)
	r, err := Analyze(prog, "build", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoopCarriedQueries("U"); err == nil {
		t.Error("malloc'd q has no induction structure; expected error")
	}
}

// TestIfJoin: paths merge by alternation at control-flow joins, and
// branch-local handles are dropped.
func TestIfJoin(t *testing.T) {
	src := `
struct Tree {
	struct Tree *L;
	struct Tree *R;
	int d;
	axioms {
		forall p, p.L <> p.R;
		forall p <> q, p.(L|R) <> q.(L|R);
		forall p, p.(L|R)+ <> p.eps;
	}
};
void f(struct Tree *a, int c) {
	struct Tree *p;
	if (c > 0) {
		p = a->L;
	} else {
		p = a->R;
	}
X:	p->d = 1;
}
`
	prog := lang.MustParse(src)
	r, err := Analyze(prog, "f", Options{})
	if err != nil {
		t.Fatal(err)
	}
	apm := r.APM("X")
	p, ok := apm.Lookup("_ha", "p")
	if !ok {
		t.Fatalf("no merged path for p:\n%s", apm)
	}
	if got := p.String(); got != "L|R" {
		t.Errorf("merged path = %s, want L|R", got)
	}
	// APT can still prove p->d independent of the other child's subtree.
	accs := r.AccessesAt("X")
	if len(accs) != 1 {
		t.Fatalf("accesses at X: %+v", accs)
	}
}

// TestStructuralModificationWindow: a store to a pointer field invalidates
// the axioms constraining that field for queries spanning the store (§3.4).
func TestStructuralModificationWindow(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};
void g(struct Node *a, struct Node *m) {
	struct Node *p;
	struct Node *q;
	p = a->link;
S:	p->f = 1;
	a->link = m;
	q = a->link;
T:	q->f = 2;
}
`
	prog := lang.MustParse(src)
	r, err := Analyze(prog, "g", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mods) != 1 || r.Mods[0].Field != "link" {
		t.Fatalf("mods = %+v, want one link modification", r.Mods)
	}
	qs, err := r.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Axioms.Len() != 0 {
			t.Errorf("window axioms = %d, want 0 (all constrain link)", q.Axioms.Len())
		}
	}
	// A query that does not span the modification keeps all axioms.
	same, err := r.QueriesBetween("S", "S")
	if err != nil {
		t.Fatal(err)
	}
	if same[0].Axioms.Len() != r.Axioms.Len() {
		t.Errorf("non-spanning window dropped axioms: %d vs %d", same[0].Axioms.Len(), r.Axioms.Len())
	}
}

// TestModificationInvalidatesPaths: after a->link is stored, paths that
// traverse link are no longer trusted.
func TestModificationInvalidatesPaths(t *testing.T) {
	src := `
struct Node { struct Node *link; int f; };
void g(struct Node *a, struct Node *m) {
	struct Node *p;
	p = a->link;
	a->link = m;
X:	p->f = 1;
}
`
	prog := lang.MustParse(src)
	r, err := Analyze(prog, "g", Options{})
	if err != nil {
		t.Fatal(err)
	}
	accs := r.AccessesAt("X")
	if len(accs) != 1 {
		t.Fatalf("accesses: %+v", accs)
	}
	// p's path a.link was invalidated; only its own ε anchor remains.
	for _, p := range accs[0].Paths {
		if p.Handle == "_hp" {
			continue
		}
		t.Errorf("stale path %s.%s survived the modification", p.Handle, p.Path)
	}
}

// TestLoopCarriedWithModification: structural modification inside the loop
// strips the axioms for loop-carried queries unless the analysis is told to
// assume invariants are maintained — the partial vs full distinction behind
// Figure 7.
func TestLoopCarriedWithModification(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};
void h(struct Node *head, struct Node *extra) {
	struct Node *q;
	q = head;
	while (q != NULL) {
U:		q->f = fun();
		q->link = extra;
		q = q->link;
	}
}
`
	prog := lang.MustParse(src)

	partial, err := Analyze(prog, "h", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := partial.LoopCarriedQueries("U")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(partial.Axioms, prover.Options{})
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.Maybe {
			t.Errorf("partial analysis = %v, want Maybe (axioms invalidated by the in-loop store)", out.Result)
		}
	}

	full, err := Analyze(prog, "h", Options{AssumeLoopInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err = full.LoopCarriedQueries("U")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.No {
			t.Errorf("full analysis = %v, want No (invariants assumed maintained)", out.Result)
		}
	}
}

// TestLoopCarriedBetween: two different statements in one loop, compared
// across iterations.
func TestLoopCarriedBetween(t *testing.T) {
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
void w(struct Node *head) {
	struct Node *q;
	q = head;
	while (q != NULL) {
A:		q->f = 1;
B:		q->f = q->g;
		q = q->link;
	}
}
`
	prog := lang.MustParse(src)
	r, err := Analyze(prog, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := r.LoopCarriedBetween("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(r.Axioms, prover.Options{})
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.No {
			t.Errorf("cross-iteration A/B = %v, want No", out.Result)
		}
	}
	// Same-iteration A and B definitely collide on field f.
	same, err := r.QueriesBetween("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	foundYes := false
	for _, q := range same {
		if q.S.Field == "f" && q.T.Field == "f" {
			if out := tester.DepTest(q); out.Result == core.Yes {
				foundYes = true
			}
		}
	}
	if !foundYes {
		t.Error("same-iteration write/write on q->f should be a definite dependence")
	}
}

// TestOpaqueCallsOption: with CallsModifyStructure, a call wipes the world.
func TestOpaqueCallsOption(t *testing.T) {
	src := `
struct Node {
	struct Node *link;
	int f;
	axioms { forall p <> q, p.link <> q.link; forall p, p.link+ <> p.eps; }
};
void g(struct Node *a) {
	struct Node *p;
	p = a->link;
S:	p->f = 1;
	shuffle(a);
T:	p->f = 2;
}
`
	prog := lang.MustParse(src)
	strict, err := Analyze(prog, "g", Options{CallsModifyStructure: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := strict.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Axioms.Len() != 0 {
		t.Errorf("axioms across opaque call = %d, want 0", qs[0].Axioms.Len())
	}

	lenient, err := Analyze(prog, "g", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err = lenient.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Axioms.Len() == 0 {
		t.Error("lenient mode should keep axioms across calls")
	}
}

// TestInferTypeAxioms: fields of different target types yield inferred
// disjointness axioms.
func TestInferTypeAxioms(t *testing.T) {
	src := `
struct Header { struct Header *nrowH; struct Elem *relem; };
struct Elem { struct Elem *ncolE; double val; };
void f(struct Header *h) {
	struct Elem *e;
	e = h->relem;
X:	e->val = 1.0;
}
`
	prog := lang.MustParse(src)
	with, err := Analyze(prog, "f", Options{InferTypeAxioms: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Analyze(prog, "f", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if with.Axioms.Len() <= without.Axioms.Len() {
		t.Errorf("inferred axioms missing: %d vs %d", with.Axioms.Len(), without.Axioms.Len())
	}
}

func TestAPMString(t *testing.T) {
	r := analyzeSection33(t, Options{})
	out := r.APM("S").String()
	for _, want := range []string{"_hroot", "_hp", "LLN"} {
		if !strings.Contains(out, want) {
			t.Errorf("APM table missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	prog := lang.MustParse(`struct T { struct T *n; }; void f(struct T *x) { x = x->n; }`)
	if _, err := Analyze(prog, "missing", Options{}); err == nil {
		t.Error("expected error for missing function")
	}
	r, err := Analyze(prog, "f", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.QueriesBetween("A", "B"); err == nil {
		t.Error("expected error for unknown labels")
	}
	if _, err := r.LoopCarriedQueries("A"); err == nil {
		t.Error("expected error for unknown label")
	}
}
