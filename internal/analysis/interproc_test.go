package analysis

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

const interprocSrc = `
struct Node {
	struct Node *link;
	int f;
	axioms {
		forall p <> q, p.link <> q.link;
		forall p, p.link+ <> p.eps;
	}
};

struct Node* advance(struct Node *p) {
	struct Node *q;
	q = p->link;
	return q;
}

struct Node* advanceTwice(struct Node *p) {
	struct Node *q;
	q = p->link;
	q = q->link;
	return q;
}

void relink(struct Node *a, struct Node *b) {
	a->link = b;
}

void churn(struct Node *a) {
	relink(a, a);
	mystery(a);
}

void caller(struct Node *head) {
	struct Node *x;
	struct Node *y;
	x = advance(head);
	y = advanceTwice(head);
S:	x->f = 1;
T:	y->f = 2;
}

void crossesMutation(struct Node *head, struct Node *other) {
	struct Node *x;
	x = advance(head);
S:	x->f = 1;
	relink(head, other);
T:	x->f = 2;
}
`

func TestSummarize(t *testing.T) {
	prog := lang.MustParse(interprocSrc)
	sums := Summarize(prog)

	adv := sums["advance"]
	if adv == nil || !adv.RetKnown || adv.RetParam != 0 || adv.RetPath.String() != "link" {
		t.Fatalf("advance summary = %+v", adv)
	}
	if len(adv.ModifiedFields) != 0 || adv.CallsUnknown {
		t.Errorf("advance should be pure: %+v", adv)
	}

	adv2 := sums["advanceTwice"]
	if adv2 == nil || !adv2.RetKnown || adv2.RetPath.String() != "link.link" {
		t.Fatalf("advanceTwice summary = %+v", adv2)
	}

	rl := sums["relink"]
	if rl == nil || !reflect.DeepEqual(rl.ModifiedFields, []string{"link"}) {
		t.Fatalf("relink summary = %+v", rl)
	}
	if rl.RetKnown {
		t.Error("void function should not report a return path")
	}

	// churn inherits relink's modification and taints on mystery().
	ch := sums["churn"]
	if !reflect.DeepEqual(ch.ModifiedFields, []string{"link"}) || !ch.CallsUnknown {
		t.Fatalf("churn summary = %+v", ch)
	}
}

// TestSummarizeReachedOnly: Analyze summarizes only the functions its
// function reaches through calls, each summary equal to Summarize's, and its
// analysis.summarize span counts them.
func TestSummarizeReachedOnly(t *testing.T) {
	prog := lang.MustParse(interprocSrc)
	all := Summarize(prog)
	for _, fn := range prog.Funcs {
		for name, s := range summarize(prog, []*lang.FuncDecl{fn}) {
			if !reflect.DeepEqual(s, all[name]) {
				t.Errorf("from %s: %s summary = %+v, want %+v", fn.Name, name, s, all[name])
			}
		}
	}
	for fn, want := range map[string]int64{"caller": 3, "crossesMutation": 3, "churn": 2, "advance": 1} {
		rt := telemetry.NewRequestTrace(telemetry.NewTraceContext())
		if _, err := Analyze(prog, fn, Options{Telemetry: telemetry.New(nil, rt)}); err != nil {
			t.Fatal(err)
		}
		var got any
		for _, sp := range rt.Spans() {
			if sp.Name == "analysis.summarize" {
				got = sp.Attrs["funcs"]
			}
		}
		if got != want {
			t.Errorf("Analyze(%s) summarized %v functions, want %d", fn, got, want)
		}
	}
}

// TestAccessorReturnPathsFlowIntoAPM: x = advance(head) gives x the path
// head.link, so S vs T resolves precisely through two calls.
func TestAccessorReturnPathsFlowIntoAPM(t *testing.T) {
	prog := lang.MustParse(interprocSrc)
	res, err := Analyze(prog, "caller", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	if q.S.Handle != "_hhead" {
		t.Fatalf("query = %+v, want _hhead anchor", q)
	}
	if q.S.Path.String() != "link" || q.T.Path.String() != "link.link" {
		t.Fatalf("paths = %s / %s, want link / link.link", q.S.Path, q.T.Path)
	}
	tester := core.NewTester(res.Axioms, prover.Options{})
	if out := tester.DepTest(q); out.Result != core.No {
		t.Fatalf("accessor-derived query = %v, want No", out.Result)
	}
}

// TestCalleeMutationOpensWindow: relink's store to link (inside the callee)
// invalidates the link axioms for queries spanning the call.
func TestCalleeMutationOpensWindow(t *testing.T) {
	prog := lang.MustParse(interprocSrc)
	res, err := Analyze(prog, "crossesMutation", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mods) == 0 {
		t.Fatal("callee mutation not recorded as a modification site")
	}
	qs, err := res.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Axioms.Len() != 0 {
			t.Errorf("window across relink() kept %d axioms, want 0", q.Axioms.Len())
		}
	}
	// The identical x->f accesses still collide definitely.
	tester := core.NewTester(res.Axioms, prover.Options{})
	if out := tester.DepTest(qs[0]); out.Result != core.Yes {
		t.Errorf("same pointer both sides = %v, want Yes", out.Result)
	}
}

// TestCalleeMutationInvalidatesPaths: x's path through link is dropped at
// the relink call.
func TestCalleeMutationInvalidatesPaths(t *testing.T) {
	prog := lang.MustParse(interprocSrc)
	res, err := Analyze(prog, "crossesMutation", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range res.AccessesAt("T") {
		for _, p := range acc.Paths {
			if p.Handle == "_hhead" {
				t.Errorf("head-relative path for x survived the callee's link store")
			}
		}
	}
}

// TestUnknownCalleeLenientVsStrict: unchanged behavior for undefined
// functions.
func TestUnknownCalleeLenientVsStrict(t *testing.T) {
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
	mystery(a);
T:	p->f = 2;
}
`
	prog := lang.MustParse(src)
	lenient, err := Analyze(prog, "g", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := lenient.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Axioms.Len() == 0 {
		t.Error("lenient mode dropped axioms across an unknown call")
	}
	strict, err := Analyze(prog, "g", Options{CallsModifyStructure: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err = strict.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Axioms.Len() != 0 {
		t.Error("strict mode kept axioms across an unknown call")
	}
}

// TestRecursiveSummaries: mutual recursion reaches a fixpoint.
func TestRecursiveSummaries(t *testing.T) {
	src := `
struct T { struct T *a; struct T *b; };
void even(struct T *x) { x->a = x; odd(x); }
void odd(struct T *x) { x->b = x; even(x); }
`
	prog := lang.MustParse(src)
	sums := Summarize(prog)
	for _, name := range []string{"even", "odd"} {
		if !reflect.DeepEqual(sums[name].ModifiedFields, []string{"a", "b"}) {
			t.Errorf("%s modified fields = %v, want [a b]", name, sums[name].ModifiedFields)
		}
	}
}
