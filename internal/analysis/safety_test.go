package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/prover"
)

// TestAddressTakenHandleIsReassigned: a call given &p (in a statement or a
// condition), or a store through a pointer holding &p, may move p.  At T p holds the old p->next, which S
// wrote through q, so the pair carries an output dependence: the test may
// answer Maybe but never No.  Keeping p's old path from h would prove
// h.next.v and h.ε.v apart, an unsound No.
func TestAddressTakenHandleIsReassigned(t *testing.T) {
	const structs = `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};
`
	for _, tc := range []struct{ name, src string }{
		{"call", structs + `
void adv(struct N **pp) {
	struct N *x;
	x = *pp;
	*pp = x->next;
}
void walk(struct N *h) {
	struct N *p;
	struct N *q;
	p = h;
	q = p->next;
S:	q->v = 1;
	adv(&p);
T:	p->v = 2;
}
`},
		{"call-in-condition", structs + `
int adv(struct N **pp) {
	struct N *x;
	x = *pp;
	*pp = x->next;
	return 1;
}
void walk(struct N *h) {
	struct N *p;
	struct N *q;
	p = h;
	q = p->next;
S:	q->v = 1;
	if (adv(&p)) {
		h->v = 0;
	}
T:	p->v = 2;
}
`},
		{"store-through-pointer", structs + `
void walk(struct N *h) {
	struct N *p;
	struct N *q;
	struct N **pp;
	p = h;
	q = p->next;
	pp = &p;
S:	q->v = 1;
	*pp = q;
T:	p->v = 2;
}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Analyze(lang.MustParse(tc.src), "walk", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tp, _ := res.APM("T").Lookup("_hh", "p"); tp != nil {
				t.Errorf("p keeps path %v from h after its address was written through", tp)
			}
			qs, err := res.QueriesBetween("S", "T")
			if err != nil {
				t.Fatal(err)
			}
			tester := core.NewTester(res.Axioms, prover.Options{})
			for _, q := range qs {
				if out := tester.DepTest(q); out.Result == core.No {
					t.Errorf("%v vs %v answered No (%s); p may equal q at T", q.S, q.T, out.Reason)
				}
			}
		})
	}
}

// TestLoopRecords: the analysis names each access's and modification's
// innermost loop, lists loops outer first, and counts an address-taken
// struct pointer as written by a loop that calls a function.
func TestLoopRecords(t *testing.T) {
	src := `
struct N {
	struct N *next;
	int v;
};
void walk(struct N *h, struct N *g) {
	struct N *p;
	struct N *q;
	p = h;
	while (p != NULL) {
		q = g;
		while (q != NULL) {
			q->v = 1;
			q = q->next;
		}
		p->next = NULL;
		step(&p);
	}
	h->v = 2;
}
`
	res, err := Analyze(lang.MustParse(src), "walk", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(res.Loops))
	}
	outer, inner := res.Loops[0], res.Loops[1]
	if outer.Stmt.StmtPos().Line != 10 || inner.Stmt.StmtPos().Line != 12 {
		t.Fatalf("loops at lines %d, %d; want 10, 12", outer.Stmt.StmtPos().Line, inner.Stmt.StmtPos().Line)
	}
	want := map[int]*Loop{13: inner, 14: inner, 16: outer, 19: nil}
	for _, a := range res.Accesses {
		if l, ok := want[a.Pos.Line]; ok && a.Loop != l {
			t.Errorf("access %s->%s at line %d: loop %p, want %p", a.Var, a.Field, a.Pos.Line, a.Loop, l)
		}
	}
	if len(res.Mods) != 1 || res.Mods[0].Loop != outer {
		t.Errorf("mods = %+v, want one in the outer loop", res.Mods)
	}
	if !outer.Written["p"] || !outer.Written["q"] || inner.Written["p"] {
		t.Errorf("written: outer %v, inner %v; want p (through step(&p)) and q outer, no p inner", outer.Written, inner.Written)
	}
}

// TestLoopCarriedStaleHandle: a destructive update late in a loop body
// stales a handle that the next iteration dereferences early in the body,
// just as the same update stales a later use in straight-line code — also
// when the stale value reaches the use through a copy one iteration on.
func TestLoopCarriedStaleHandle(t *testing.T) {
	const structs = `
struct N {
	struct N *nx;
	int d;
};
`
	for _, tc := range []struct{ name, body, want string }{
		{"straight-line", `
	h->nx = NULL;
	t->d = 1;
`, "t"},
		{"loop-carried", `
	while (c) {
		t->d = 1;
		h->nx = NULL;
		c = c - 1;
	}
`, "t"},
		{"carried-through-a-copy", `
	u = h;
	while (c) {
		u->d = 1;
		u = t;
		t = h->nx;
		h->nx = NULL;
		c = c - 1;
	}
`, "u"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := structs + `
void f(struct N *h, int c) {
	struct N *t;
	struct N *u;
	t = h->nx;
	if (t == NULL) {
		return;
	}` + tc.body + `}
`
			res, err := Analyze(lang.MustParse(src), "f", Options{})
			if err != nil {
				t.Fatal(err)
			}
			var stale []Hazard
			for _, h := range res.Hazards {
				if h.Kind == DerefStale {
					stale = append(stale, h)
				}
			}
			if len(stale) != 1 || stale[0].Var != tc.want || stale[0].Stale.Field != "nx" {
				t.Fatalf("stale hazards = %+v, want one use of %s after the update of nx", stale, tc.want)
			}
		})
	}
}
