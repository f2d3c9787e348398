package lint

import (
	"strings"
	"testing"

	"repro/internal/axiom"
	"repro/internal/lang"
	"repro/internal/telemetry"
)

func mustLint(t *testing.T, src string, passes ...Pass) []Diagnostic {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	diags, err := NewDriver(nil, passes...).Run("test.c", prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return diags
}

func findDiag(diags []Diagnostic, substr string) *Diagnostic {
	for i := range diags {
		if strings.Contains(diags[i].Message, substr) {
			return &diags[i]
		}
	}
	return nil
}

// --- axiom-consistency ---

func TestCheckSetSelfContradiction(t *testing.T) {
	set := axiom.MustParseSet("T", "A1: forall p, p.(l|r) <> p.r")
	diags := CheckSet(set)
	d := findDiag(diags, "self-contradictory")
	if d == nil {
		t.Fatalf("no self-contradiction reported: %v", diags)
	}
	if d.Severity != Error {
		t.Errorf("severity = %v, want Error", d.Severity)
	}
	if !strings.Contains(d.Message, `"r"`) {
		t.Errorf("message lacks the witness word: %q", d.Message)
	}
}

// TestCheckSetProductOverBudget is the regression test for a panic: both
// sides of (a^127)* <> (a^131)* compile within the state budget, but their
// product has lcm(127, 131) = 16,637 states.  CheckSet must report the same
// Warning it gives for an over-budget compile, not panic.
func TestCheckSetProductOverBudget(t *testing.T) {
	set := axiom.MustParseSet("T", "A1: forall p, "+cyclePower("a", 127)+" <> "+cyclePower("a", 131))
	diags := CheckSet(set)
	d := findDiag(diags, "too large to compile")
	if d == nil || d.Severity != Warning {
		t.Fatalf("want an over-budget Warning, got %v", diags)
	}
	if findDiag(diags, "self-contradictory") != nil {
		t.Errorf("an undecided product reported a contradiction: %v", diags)
	}
}

// cyclePower renders p.(f.f.….f)* with n copies of f.
func cyclePower(f string, n int) string {
	return "p.(" + strings.TrimSuffix(strings.Repeat(f+".", n), ".") + ")*"
}

func TestCheckSetEqualityContradiction(t *testing.T) {
	set := axiom.MustParseSet("T", `
		A1: forall p, p.l <> p.r
		E1: forall p, p.l = p.r`)
	diags := CheckSet(set)
	d := findDiag(diags, "contradicts the disjointness axioms")
	if d == nil {
		t.Fatalf("no equality contradiction reported: %v", diags)
	}
	if !strings.Contains(d.Message, "A1") {
		t.Errorf("message does not cite A1: %q", d.Message)
	}
}

func TestCheckSetDuplicate(t *testing.T) {
	set := axiom.MustParseSet("T", `
		A1: forall p, p.l <> p.r
		A2: forall p, p.l <> p.r`)
	d := findDiag(CheckSet(set), "duplicates")
	if d == nil || d.Severity != Info {
		t.Fatalf("duplicate not reported as info: %+v", d)
	}
}

func TestCheckSetConsistent(t *testing.T) {
	// The paper's §3.3 leaf-linked-tree axioms are consistent.
	set := axiom.MustParseSet("LLBinaryTree", `
		A1: forall p, p.L <> p.R
		A2: forall p <> q, p.(L|R) <> q.(L|R)
		A4: forall p, p.(L|R|N)+ <> p.eps`)
	if diags := CheckSet(set); len(diags) != 0 {
		t.Fatalf("consistent set produced diagnostics: %v", diags)
	}
}

// --- lang-hygiene ---

func TestHygieneUndeclaredStructAndField(t *testing.T) {
	diags := mustLint(t, `
struct H { int a; struct M *m; };
int f(struct H *h) { return h->b; }`, LangHygiene())
	if findDiag(diags, "undeclared type struct M") == nil {
		t.Errorf("missing undeclared-struct diagnostic: %v", diags)
	}
	if findDiag(diags, "no field b") == nil {
		t.Errorf("missing unknown-field diagnostic: %v", diags)
	}
}

func TestHygieneDeadStoreAndUnreachable(t *testing.T) {
	diags := mustLint(t, `
int f() {
	int x;
	int y;
	x = 1;
	y = x;
	x = 2;
	return y;
	y = 0;
}`, LangHygiene())
	dead := findDiag(diags, "dead store: value assigned to x")
	if dead == nil || dead.Pos.Line != 7 {
		t.Errorf("want dead store at line 7 (x = 2), got %+v (all: %v)", dead, diags)
	}
	if findDiag(diags, "unreachable") == nil {
		t.Errorf("missing unreachable diagnostic: %v", diags)
	}
}

func TestHygieneLoopBackEdgeKeepsStoreLive(t *testing.T) {
	// The store to s at the end of the body feeds the read at its top via
	// the back-edge: not a dead store.
	diags := mustLint(t, `
struct N { struct N *n; int d; };
int f(struct N *p, int k) {
	int s;
	int i;
	s = 0;
	i = 0;
	while (i < k) {
		i = i + s;
		s = i;
	}
	return i;
}`, LangHygiene())
	if d := findDiag(diags, "dead store: value assigned to s"); d != nil && d.Pos.Line == 10 {
		t.Errorf("in-loop store wrongly flagged dead: %+v", d)
	}
}

// --- handle-safety ---

func TestHandleSafetyNilAndUninit(t *testing.T) {
	diags := mustLint(t, `
struct N { struct N *next; int d; };
int f(struct N *h) {
	struct N *p;
	struct N *q;
	q = NULL;
	p->d = 1;
	q->d = 2;
	return 0;
}`, HandleSafety())
	if d := findDiag(diags, "never-initialized handle p"); d == nil || d.Severity != Error {
		t.Errorf("missing uninit error: %v", diags)
	}
	if d := findDiag(diags, "nil dereference of handle q"); d == nil || d.Severity != Error {
		t.Errorf("missing nil-deref error: %v", diags)
	}
}

func TestHandleSafetyGuardRefinement(t *testing.T) {
	diags := mustLint(t, `
struct N { struct N *next; int d; };
int f(struct N *h) {
	struct N *r;
	r = h->next;
	if (r != NULL) {
		r->d = 1;
	}
	if (h == NULL) {
		h->d = 2;
	}
	return 0;
}`, HandleSafety())
	if d := findDiag(diags, "possibly-nil dereference of handle r"); d != nil {
		t.Errorf("guarded deref wrongly flagged: %+v", d)
	}
	if d := findDiag(diags, "nil dereference of handle h"); d == nil {
		t.Errorf("deref under == NULL guard not flagged: %v", diags)
	}
}

func TestHandleSafetyWhileGuard(t *testing.T) {
	// The canonical list walk: the guard makes p non-nil inside the body,
	// and NULL after the loop.
	diags := mustLint(t, `
struct N { struct N *next; int d; };
int f(struct N *h) {
	struct N *p;
	p = h;
	while (p != NULL) {
		p->d = 1;
		p = p->next;
	}
	p->d = 2;
	return 0;
}`, HandleSafety())
	if d := findDiag(diags, "dereference of handle p"); d == nil || d.Pos.Line != 10 || d.Severity != Error {
		t.Fatalf("want exactly the post-loop nil deref at line 10, got %v", diags)
	}
	for _, d := range diags {
		if d.Pos.Line == 7 {
			t.Errorf("in-loop guarded deref wrongly flagged: %+v", d)
		}
	}
}

func TestHandleSafetyStaleHandle(t *testing.T) {
	diags := mustLint(t, `
struct N { struct N *nx; int d; };
void f(struct N *a) {
	struct N *t;
	t = a->nx;
	if (t != NULL) {
		a->nx = NULL;
		t->d = 1;
	}
}`, HandleSafety())
	d := findDiag(diags, "after destructive update of field nx")
	if d == nil || d.Severity != Warning {
		t.Fatalf("missing stale-handle warning: %v", diags)
	}
	if len(d.Related) == 0 || d.Related[0].Pos.Line != 7 {
		t.Errorf("stale warning lacks the mod-site note: %+v", d)
	}
}

// TestHandleSafetyStaleThroughCall: a summarized callee's store to nx stales
// t exactly as a direct store would.
func TestHandleSafetyStaleThroughCall(t *testing.T) {
	diags := mustLint(t, `
struct N { struct N *nx; int d; };
void cut(struct N *a) { a->nx = NULL; }
void f(struct N *a) {
	struct N *t;
	t = a->nx;
	if (t != NULL) {
		cut(a);
		t->d = 1;
	}
}`, HandleSafety())
	d := findDiag(diags, "use of handle t after destructive update of field nx")
	if d == nil || d.Severity != Warning {
		t.Fatalf("missing stale-handle warning through the call: %v", diags)
	}
	if len(d.Related) == 0 || d.Related[0].Pos.Line != 8 {
		t.Errorf("stale warning does not point at the call: %+v", d)
	}
}

// --- parallelization-legality ---

func TestParLoopDoall(t *testing.T) {
	diags := mustLint(t, `
struct Cell {
	struct Cell *next;
	int v;
	axioms { A1: forall p, p.next+ <> p.eps; }
};
void scale(struct Cell *l) {
	struct Cell *p;
	p = l;
	while (p != NULL) {
		p->v = 2;
		p = p->next;
	}
}`, ParallelizationLegality())
	d := findDiag(diags, "No dependence")
	if d == nil || d.Severity != Info {
		t.Fatalf("missing DOALL verdict: %v", diags)
	}
	if !strings.Contains(d.Message, "DOALL") {
		t.Errorf("verdict does not mention DOALL: %q", d.Message)
	}
}

func TestParLoopInvariantWriteIsError(t *testing.T) {
	diags := mustLint(t, `
struct Acc { struct Acc *next; int sum; int v; };
void accumulate(struct Acc *a, struct Acc *l) {
	while (l != NULL) {
		a->sum = a->sum + l->v;
		l = l->next;
	}
}`, ParallelizationLegality())
	d := findDiag(diags, "provable dependence")
	if d == nil || d.Severity != Error {
		t.Fatalf("missing loop-carried output dependence error: %v", diags)
	}
	if len(d.Related) == 0 || !strings.Contains(d.Related[0].Message, "every iteration writes a->sum") {
		t.Errorf("error lacks the explanation note: %+v", d)
	}
}

// TestParLoopAddressTakenInductionIsMaybe: step(&p) advances p through its
// address, from the body or from the loop condition, so p->v is not one
// vertex written every iteration — the loop may carry a dependence, but
// none is provable.
func TestParLoopAddressTakenInductionIsMaybe(t *testing.T) {
	const decls = `
struct N {
	struct N *next;
	int v;
	axioms { A1: forall p, p.next+ <> p.eps; }
};
int step(struct N **pp) {
	struct N *x;
	x = *pp;
	*pp = x->next;
	return 1;
}
`
	for _, loop := range []string{
		"while (p != NULL) { p->v = 1; step(&p); }",
		"while (step(&p)) { p->v = 1; }",
	} {
		diags := mustLint(t, decls+"void walk(struct N *h) { struct N *p; p = h; "+loop+" }", ParallelizationLegality())
		if d := findDiag(diags, "provable dependence"); d != nil {
			t.Errorf("%s: address-taken induction variable reported as a provable dependence: %+v", loop, d)
		}
		if d := findDiag(diags, "loop may carry a dependence"); d == nil || d.Severity != Warning {
			t.Errorf("%s: missing Maybe warning: %v", loop, diags)
		}
	}
}

func TestParLoopMaybeExplainsProofFailure(t *testing.T) {
	diags := mustLint(t, `
struct Ring { struct Ring *next; int v; };
void bump(struct Ring *s, int k) {
	struct Ring *p;
	int i;
	p = s;
	i = 0;
	while (i < k) {
		p->v = i;
		p = p->next;
		i = i + 1;
	}
}`, ParallelizationLegality())
	d := findDiag(diags, "not proved legal")
	if d == nil || d.Severity != Warning {
		t.Fatalf("missing maybe verdict: %v", diags)
	}
	if len(d.Related) == 0 {
		t.Fatal("maybe verdict has no explanation notes")
	}
	note := d.Related[0].Message
	if !strings.Contains(note, "prover searched") && !strings.Contains(note, "exhausted") {
		t.Errorf("note lacks proof-search stats: %q", note)
	}
}

// --- invariant-maintenance ---

func TestInvariantMaintenance(t *testing.T) {
	diags := mustLint(t, `
struct Node {
	struct Node *next;
	int f;
	axioms { A1: forall p, p.next+ <> p.eps; }
};
void ins(struct Node *pos) {
	struct Node *n;
	struct Node *rest;
	n = malloc(struct Node);
	rest = pos->next;
	n->next = rest;
	pos->next = n;
}`, InvariantMaintenance())
	d := findDiag(diags, "suspends axiom A1")
	if d == nil {
		t.Fatalf("missing §3.4 window diagnostic: %v", diags)
	}
	if findDiag(diags, "axiomcheck -maintain") == nil {
		t.Errorf("missing dynamic-check suggestion: %v", diags)
	}
}

func TestInvariantMaintenanceInLoopIsWarning(t *testing.T) {
	diags := mustLint(t, `
struct Node {
	struct Node *next;
	int f;
	axioms { A1: forall p, p.next+ <> p.eps; }
};
void sever(struct Node *h, int k) {
	int i;
	i = 0;
	while (i < k) {
		h->next = NULL;
		i = i + 1;
	}
}`, InvariantMaintenance())
	d := findDiag(diags, "inside a loop suspends axiom A1")
	if d == nil || d.Severity != Warning {
		t.Fatalf("in-loop update not upgraded to warning: %v", diags)
	}
}

// --- driver ---

func TestDriverSortAndHasErrors(t *testing.T) {
	diags := []Diagnostic{
		{Pos: lang.Pos{Line: 9, Col: 1}, Severity: Info, Message: "b"},
		{Pos: lang.Pos{Line: 2, Col: 5}, Severity: Warning, Message: "a"},
		{Pos: lang.Pos{Line: 2, Col: 5}, Severity: Error, Message: "c"},
	}
	Sort(diags)
	if diags[0].Severity != Error || diags[1].Severity != Warning || diags[2].Pos.Line != 9 {
		t.Fatalf("bad order: %+v", diags)
	}
	if !HasErrors(diags) {
		t.Error("HasErrors = false")
	}
	if HasErrors(diags[1:]) {
		t.Error("HasErrors on error-free slice = true")
	}
}

func TestPassesByName(t *testing.T) {
	ps, err := PassesByName([]string{"handle-safety", "lang-hygiene"})
	if err != nil || len(ps) != 2 || ps[0].Name() != "handle-safety" {
		t.Fatalf("PassesByName: %v %v", ps, err)
	}
	if _, err := PassesByName([]string{"nope"}); err == nil {
		t.Fatal("unknown pass accepted")
	}
}

func TestDriverTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, nil)
	prog, err := lang.Parse(`
struct N { struct N *next; int d; };
int f(struct N *h) { return h->d; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDriver(tel).Run("t.c", prog); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["lint.files"] != 1 {
		t.Errorf("lint.files = %d, want 1", snap.Counters["lint.files"])
	}
	found := false
	for name := range snap.Counters {
		if strings.HasPrefix(name, "lint.pass.") {
			found = true
		}
	}
	if !found {
		t.Errorf("no per-pass counters in snapshot: %v", snap.Counters)
	}
}
