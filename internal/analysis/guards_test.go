package analysis

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/heap/oracle"
	"repro/internal/lang"
	"repro/internal/prover"
)

// guardedLoopSrc is the canonical guard-upgrade shape: the write at A runs
// only when mode is set, the read at B only when it is not, and the B-side
// path traverses the axiom-free jump field so the prover alone cannot
// separate the two.  mode is never assigned in the loop, so its guard is
// loop-invariant and the A↔B cross-iteration pairs upgrade to No.
const guardedLoopSrc = `
struct T {
	struct T *next;
	struct T *jump;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void f(struct T *h, int mode) {
	struct T *p;
	struct T *r;
	int t;
	p = h;
	while (p != NULL) {
		if (mode) {
A:			p->v = 1;
		} else {
			r = p->jump;
			if (r != NULL) {
B:				t = t + r->v;
			}
		}
		p = p->next;
	}
}
`

func analyzeGuarded(t *testing.T, src, fn string) *Result {
	t.Helper()
	prog := lang.MustParse(src)
	r, err := Analyze(prog, fn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func singleAccess(t *testing.T, r *Result, label string) *Access {
	t.Helper()
	accs := r.AccessesAt(label)
	if len(accs) != 1 {
		t.Fatalf("label %s: %d accesses, want 1", label, len(accs))
	}
	return &accs[0]
}

func TestGuardsAttachWithSigns(t *testing.T) {
	r := analyzeGuarded(t, guardedLoopSrc, "f")
	a := singleAccess(t, r, "A")
	b := singleAccess(t, r, "B")

	wantContains := func(s guard.Set, text string) {
		t.Helper()
		if !strings.Contains(s.String(), text) {
			t.Errorf("guard set %v does not contain %q", s, text)
		}
	}
	wantContains(a.Guards, "mode")
	wantContains(b.Guards, "!(mode)")

	// The two mode references must share one predicate with opposite
	// signs (mode is never modified between the branches).
	if _, _, ok := guard.Conflict(a.Guards, b.Guards); !ok {
		t.Fatalf("Conflict(A=%v, B=%v) = false, want true", a.Guards, b.Guards)
	}

	// mode is loop-invariant: its guard survives into InvGuards on both
	// sides.  The inner r != NULL guard is loop-variant (r is assigned
	// each iteration) and must be filtered from B's InvGuards.
	if _, _, ok := guard.Conflict(a.InvGuards, b.InvGuards); !ok {
		t.Fatalf("invariant Conflict(A=%v, B=%v) = false, want true", a.InvGuards, b.InvGuards)
	}
	if s := b.Guards.String(); !strings.Contains(s, "NULL == r") {
		t.Errorf("B full guards %v missing the r != NULL atom", b.Guards)
	}
	if s := b.InvGuards.String(); strings.Contains(s, "r") {
		t.Errorf("B invariant guards %v kept the loop-variant r guard", b.InvGuards)
	}
}

func TestLoopCarriedPairUpgradesOnGuardConflict(t *testing.T) {
	r := analyzeGuarded(t, guardedLoopSrc, "f")
	a := singleAccess(t, r, "A")
	b := singleAccess(t, r, "B")

	tester := core.NewTester(r.Axioms, prover.Options{})
	pairs := append(r.LoopCarriedPair(a, b), r.LoopCarriedPair(b, a)...)
	if len(pairs) == 0 {
		t.Fatal("no cross-iteration A↔B queries")
	}
	for _, q := range pairs {
		out := tester.DepTest(q)
		if out.Result != core.No || !out.GuardUpgraded {
			t.Errorf("A↔B query %v vs %v: got %s (upgraded=%v), want guard-upgraded No",
				q.S, q.T, out.Result, out.GuardUpgraded)
		}
		if !strings.Contains(out.Reason, "mode") || !strings.Contains(out.Reason, "mutually exclusive") {
			t.Errorf("Reason %q does not cite the contradicting guards", out.Reason)
		}
	}

	// Without the path-sensitivity layer these same queries are Maybe:
	// the jump field has no axioms.
	for _, q := range pairs {
		q.SGuards, q.TGuards = nil, nil
		out := tester.DepTest(q)
		if out.Result != core.Maybe {
			t.Errorf("guard-free A↔B query: got %s, want Maybe (axiom-free jump field)", out.Result)
		}
	}

	// A's self-dependence is proved by acyclicity alone — no guard credit.
	for _, q := range r.LoopCarriedSelf(a) {
		out := tester.DepTest(q)
		if out.Result != core.No || out.GuardUpgraded {
			t.Errorf("A self query: got %s (upgraded=%v), want plain No", out.Result, out.GuardUpgraded)
		}
	}
}

// TestReassignmentBlocksConflict: a variable reassigned between two
// branches yields distinct predicate versions, so opposite signs on the
// same text must NOT conflict.
func TestReassignmentBlocksConflict(t *testing.T) {
	src := `
struct T {
	struct T *next;
	int v;
};

void g(struct T *a, struct T *b, int mode) {
	if (mode) {
S:		a->v = 1;
	}
	mode = mode - 1;
	if (!mode) {
T:		b->v = a->v;
	}
}
`
	r := analyzeGuarded(t, src, "g")
	s := singleAccess(t, r, "S")
	if _, _, ok := guard.Conflict(s.Guards, r.AccessesAt("T")[0].Guards); ok {
		t.Fatalf("conflict across a reassignment of the guard variable")
	}
	qs, err := r.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(r.Axioms, prover.Options{})
	for _, q := range qs {
		if out := tester.DepTest(q); out.GuardUpgraded {
			t.Errorf("query %v vs %v upgraded despite reassigned guard variable", q.S, q.T)
		}
	}
}

// TestStraightLineConflictUpgrades: without any reassignment the same
// pattern upgrades, and the reason names both guards.
func TestStraightLineConflictUpgrades(t *testing.T) {
	src := `
struct T {
	struct T *next;
	int v;
};

void g(struct T *a, struct T *b, int mode) {
	if (mode) {
S:		a->v = 1;
	}
	if (!mode) {
T:		b->v = a->v;
	}
}
`
	r := analyzeGuarded(t, src, "g")
	qs, err := r.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(r.Axioms, prover.Options{})
	upgraded := 0
	for _, q := range qs {
		out := tester.DepTest(q)
		if out.Result == core.No && out.GuardUpgraded {
			upgraded++
			if !strings.Contains(out.Reason, "mode") {
				t.Errorf("Reason %q does not name the guard", out.Reason)
			}
		}
	}
	if upgraded == 0 {
		t.Fatalf("no straight-line query upgraded")
	}
}

// TestIfElseGuardsShareOneEvaluation: both edges of one if/else describe
// the condition as it was evaluated, so an assignment to the condition's
// variable inside the then-branch does not give the else edge a newer
// version; the two writes below never run together.
func TestIfElseGuardsShareOneEvaluation(t *testing.T) {
	src := `
struct N {
	struct N *nx;
	int v;
	axioms {
		A1: forall p, p.nx+ <> p.eps;
	}
};

void f(struct N *h, int fix) {
	struct N *p;
	p = h;
	if (fix) {
		fix = 0;
S:		p->v = 1;
	} else {
T:		p->v = 2;
	}
}
`
	r := analyzeGuarded(t, src, "f")
	if _, _, ok := guard.Conflict(singleAccess(t, r, "S").Guards, singleAccess(t, r, "T").Guards); !ok {
		t.Fatalf("the then and else edges of one if do not conflict")
	}
	sweep, err := oracle.SweepLabels(lang.MustParse(src), "f", "S", "T", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.BothReached {
		t.Fatalf("UNSOUND: a concrete run reached both S and T")
	}
	qs, err := r.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(r.Axioms, prover.Options{})
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.No || !out.GuardUpgraded {
			t.Errorf("S vs T = %v (%s), want No by contradictory guards", out.Result, out.Reason)
		}
	}
}

// TestAddressTakenVarsAreNeverGuarded: a variable whose address escapes
// can change behind the analysis's back, so it must not generate guards.
func TestAddressTakenVarsAreNeverGuarded(t *testing.T) {
	src := `
struct T {
	struct T *next;
	int v;
};

void g(struct T *a, struct T *b, int mode) {
	int x;
	x = &mode;
	if (mode) {
S:		a->v = 1;
	}
	if (!mode) {
T:		b->v = 2;
	}
}
`
	r := analyzeGuarded(t, src, "g")
	s := singleAccess(t, r, "S")
	tt := singleAccess(t, r, "T")
	if len(s.Guards) != 0 || len(tt.Guards) != 0 {
		t.Fatalf("address-taken variable generated guards: S=%v T=%v", s.Guards, tt.Guards)
	}
}

// TestGuardEqFactInfeasible: a branch on x == y whose comparand paths the
// acyclicity axiom separates makes the guarded access dead code.
func TestGuardEqFactInfeasible(t *testing.T) {
	src := `
struct T {
	struct T *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void g(struct T *h) {
	struct T *x;
	struct T *y;
	x = h;
	y = h->next;
	if (x == y) {
S:		x->v = 1;
	}
T:	h->v = 2;
}
`
	r := analyzeGuarded(t, src, "g")
	s := singleAccess(t, r, "S")
	if len(s.Guards) != 1 || s.Guards[0].P.Eq() == nil {
		t.Fatalf("S guards = %v, want one equality predicate with a fact", s.Guards)
	}
	qs, err := r.QueriesBetween("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(r.Axioms, prover.Options{})
	found := false
	for _, q := range qs {
		out := tester.DepTest(q)
		if out.Result == core.No && out.GuardUpgraded {
			found = true
			if !strings.Contains(out.Reason, "infeasible") || !strings.Contains(out.Reason, "x") {
				t.Errorf("Reason %q does not explain the infeasible guard", out.Reason)
			}
		}
	}
	if !found {
		t.Fatalf("no query refuted the x == y guard")
	}
}

// TestGuardPredicatesPerWalk: each analysis walk interns its guard
// predicates in a table of its own, numbered from 1.  Two walks over the
// same function therefore give every access the same predicate IDs and
// conditions, yet share no *guard.Pred, so nothing a walk interns outlives
// its result.
func TestGuardPredicatesPerWalk(t *testing.T) {
	src, err := os.ReadFile("../../testdata/lint/guarded_doall.c")
	if err != nil {
		t.Fatal(err)
	}
	first := analyzeGuarded(t, string(src), "sweep")
	second := analyzeGuarded(t, string(src), "sweep")
	if len(first.Accesses) != len(second.Accesses) {
		t.Fatalf("walks record %d and %d accesses", len(first.Accesses), len(second.Accesses))
	}
	guarded := 0
	same := func(where string, a, b guard.Set) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: guard sets %v and %v differ in length", where, a, b)
		}
		for i := range a {
			ra, rb := a[i], b[i]
			if ra.P.ID() != rb.P.ID() || ra.P.Cond() != rb.P.Cond() || ra.Neg != rb.Neg {
				t.Errorf("%s[%d]: #%d %v vs #%d %v", where, i, ra.P.ID(), ra, rb.P.ID(), rb)
			}
			if ra.P == rb.P {
				t.Errorf("%s[%d]: predicate %v shared between walks", where, i, ra)
			}
		}
	}
	for i := range first.Accesses {
		a, b := &first.Accesses[i], &second.Accesses[i]
		where := fmt.Sprintf("access %s (stmt %d)", a.Label, a.Stmt)
		same(where+" Guards", a.Guards, b.Guards)
		same(where+" InvGuards", a.InvGuards, b.InvGuards)
		if len(a.Guards) > 0 {
			guarded++
		}
	}
	if guarded == 0 {
		t.Fatal("no access carries a guard; the fixture no longer exercises guard interning")
	}
}
