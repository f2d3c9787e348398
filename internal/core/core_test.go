package core

import (
	"strings"
	"testing"

	"repro/internal/axiom"
	"repro/internal/pathexpr"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

func llTester() *Tester {
	return NewTester(axiom.LeafLinkedBinaryTree(), prover.Options{})
}

func access(handle, path, field string, write bool) Access {
	return Access{Handle: handle, Path: pathexpr.MustParse(path), Field: field, IsWrite: write}
}

// TestSection33EndToEnd is the paper's worked query: S writes p->d with
// p = _hroot.LLN, T reads q->d with q = _hroot.LRN; deptest must answer No.
func TestSection33EndToEnd(t *testing.T) {
	tr := llTester()
	out := tr.DepTest(Query{
		Axioms: tr.Axioms(),
		S:      access("_hroot", "L.L.N", "d", true),
		T:      access("_hroot", "L.R.N", "d", false),
	})
	if out.Result != No {
		t.Fatalf("§3.3 query = %v (%s), want No", out.Result, out.Reason)
	}
	if out.Kind != Flow {
		t.Errorf("kind = %v, want flow", out.Kind)
	}
	if out.Proof == nil || out.Proof.Result != prover.Proved {
		t.Error("No answer should carry a proof")
	}
}

// TestTesterReusesProofsAcrossQueries: a tester answers a repeated query,
// and the same query with its accesses swapped, from its own proof memo
// without searching again; with memoization turned off it searches anew
// and derives the same proof.
func TestTesterReusesProofsAcrossQueries(t *testing.T) {
	reg := telemetry.NewRegistry()
	goals := reg.Counter("prover.goals")
	ax := axiom.LeafLinkedBinaryTree()
	q := Query{
		Axioms: ax,
		S:      access("_hroot", "L.L.N", "d", true),
		T:      access("_hroot", "L.R.N", "d", false),
	}

	tr := NewTester(ax, prover.Options{Telemetry: telemetry.New(reg, nil)})
	first := tr.DepTest(q)
	if first.Result != No || first.Proof == nil {
		t.Fatalf("§3.3 query = %v (%s), want No with a proof", first.Result, first.Reason)
	}
	searched := goals.Value()
	for _, again := range []Query{q, q.Swapped()} {
		if out := tr.DepTest(again); out.Proof != first.Proof {
			t.Errorf("S %v, T %v: proof searched again, not reused", again.S, again.T)
		}
	}
	if n := goals.Value(); n != searched {
		t.Errorf("repeated queries examined %d more goals, want 0", n-searched)
	}

	off := NewTester(ax, prover.Options{Telemetry: telemetry.New(reg, nil)}).SetProofMemo(nil)
	for round := 1; round <= 2; round++ {
		before := goals.Value()
		out := off.DepTest(q)
		if n := goals.Value() - before; n != searched {
			t.Errorf("memo off, round %d: examined %d goals, want %d", round, n, searched)
		}
		if out.Proof == first.Proof || out.Proof.Render() != first.Proof.Render() {
			t.Errorf("memo off, round %d: want a fresh search with an equal proof", round)
		}
	}
}

// A tester books each answered query on counters it resolved when it was
// built, and renders the core.deptest span's attributes only for a trace
// that records: on a metrics-only set a query costs the allocations it
// costs with telemetry off.
func TestTesterCountsAnswers(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTester(axiom.LeafLinkedBinaryTree(), prover.Options{Telemetry: telemetry.New(reg, nil)})
	for _, q := range []Query{
		{Axioms: tr.Axioms(), S: access("_hroot", "L.L.N", "d", true), T: access("_hroot", "L.R.N", "d", false)},
		{Axioms: tr.Axioms(), S: access("_h", "L.L.N", "d", true), T: access("_h", "L.L.N", "d", false)},
		{S: access("_h", "L", "d", true), T: access("_h", "R", "d", true)},
		{Axioms: tr.Axioms(), S: access("_h", "L", "d", false), T: access("_h", "R", "d", false)},
	} {
		tr.DepTest(q)
	}
	c := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"core.deptests": 4, "core.answer_No": 2, "core.answer_Yes": 1, "core.answer_Maybe": 1, "core.guard_upgrades": 0,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}

	readRead := Query{Axioms: tr.Axioms(), S: access("_h", "L", "d", false), T: access("_h", "R", "d", false)}
	off := NewTester(axiom.LeafLinkedBinaryTree(), prover.Options{})
	want := testing.AllocsPerRun(100, func() { off.DepTest(readRead) })
	if got := testing.AllocsPerRun(100, func() { tr.DepTest(readRead) }); got != want {
		t.Errorf("metrics-only DepTest: %.0f allocations, want %.0f as with telemetry off", got, want)
	}
}

func TestDefiniteYes(t *testing.T) {
	tr := llTester()
	out := tr.DepTest(Query{
		Axioms: tr.Axioms(),
		S:      access("_h", "L.L.N", "d", true),
		T:      access("_h", "L.L.N", "d", false),
	})
	if out.Result != Yes {
		t.Fatalf("identical singleton paths = %v, want Yes", out.Result)
	}
}

func TestMaybeOnConfluence(t *testing.T) {
	tr := llTester()
	out := tr.DepTest(Query{
		Axioms: tr.Axioms(),
		S:      access("_h", "L.L.N.N", "d", true),
		T:      access("_h", "L.R.N", "d", false),
	})
	if out.Result != Maybe {
		t.Fatalf("LLNN vs LRN = %v, want Maybe (they can collide)", out.Result)
	}
	if out.Proof == nil {
		t.Error("Maybe should carry the failed proof attempt")
	}
}

func TestTypeCheckShortCircuits(t *testing.T) {
	tr := llTester()
	s := access("_h", "L", "d", true)
	s.Type = "Tree"
	u := access("_h", "L", "d", true)
	u.Type = "List"
	out := tr.DepTest(Query{Axioms: tr.Axioms(), S: s, T: u})
	if out.Result != No || !strings.Contains(out.Reason, "types differ") {
		t.Fatalf("different types = %v (%s), want No", out.Result, out.Reason)
	}
	if out.Proof != nil {
		t.Error("structural No should not invoke the prover")
	}
}

func TestFieldOverlapCheck(t *testing.T) {
	tr := llTester()
	out := tr.DepTest(Query{
		Axioms: tr.Axioms(),
		S:      access("_h", "L", "d1", true),
		T:      access("_h", "L", "d2", true),
	})
	if out.Result != No || !strings.Contains(out.Reason, "do not overlap") {
		t.Fatalf("distinct fields = %v (%s), want No", out.Result, out.Reason)
	}

	// A union-style overlap override forces the aliasing question.
	out = tr.DepTest(Query{
		Axioms:        tr.Axioms(),
		S:             access("_h", "L", "d1", true),
		T:             access("_h", "L", "d2", true),
		FieldsOverlap: func(f, g string) bool { return true },
	})
	if out.Result != Yes {
		t.Fatalf("overlapping fields on same vertex = %v, want Yes", out.Result)
	}
}

func TestReadReadIsNo(t *testing.T) {
	tr := llTester()
	out := tr.DepTest(Query{
		Axioms: tr.Axioms(),
		S:      access("_h", "L.L.N", "d", false),
		T:      access("_h", "L.L.N", "d", false),
	})
	if out.Result != No || out.Kind != NoAccessConflict {
		t.Fatalf("read-read = %v/%v, want No/none", out.Result, out.Kind)
	}
}

func TestKindClassification(t *testing.T) {
	tr := llTester()
	cases := []struct {
		sw, tw bool
		want   DepKind
	}{
		{true, false, Flow},
		{false, true, Anti},
		{true, true, Output},
	}
	for _, c := range cases {
		out := tr.DepTest(Query{
			Axioms: tr.Axioms(),
			S:      access("_h", "L", "d", c.sw),
			T:      access("_h", "R", "d", c.tw),
		})
		if out.Kind != c.want {
			t.Errorf("writes (%v,%v): kind %v, want %v", c.sw, c.tw, out.Kind, c.want)
		}
		if out.Result != No {
			t.Errorf("L vs R should be No, got %v", out.Result)
		}
	}
}

func TestDistinctHandles(t *testing.T) {
	tr := llTester()
	q := Query{
		Axioms:   tr.Axioms(),
		S:        access("_hp", "N", "d", true),
		T:        access("_hq", "N", "d", true),
		Relation: DistinctHandles,
	}
	out := tr.DepTest(q)
	// ∀h<>k, h.N <> k.N is exactly A3.
	if out.Result != No {
		t.Fatalf("distinct handles N vs N = %v (%s), want No", out.Result, out.Reason)
	}
}

func TestUnknownHandlesNeedsBothProofs(t *testing.T) {
	tr := llTester()
	// L vs R: same-handle provable (A1), distinct-handle provable (A2) → No.
	out := tr.DepTest(Query{
		Axioms:   tr.Axioms(),
		S:        access("_hp", "L", "d", true),
		T:        access("_hq", "R", "d", true),
		Relation: UnknownHandles,
	})
	if out.Result != No {
		t.Fatalf("unknown handles L vs R = %v, want No", out.Result)
	}
	if out.Proof == nil || out.AuxProof == nil {
		t.Error("unknown-handle No must carry both proofs")
	}

	// N vs N: distinct-handle provable (A3) but same-handle identical → Maybe.
	out = tr.DepTest(Query{
		Axioms:   tr.Axioms(),
		S:        access("_hp", "N", "d", true),
		T:        access("_hq", "N", "d", true),
		Relation: UnknownHandles,
	})
	if out.Result != Maybe {
		t.Fatalf("unknown handles N vs N = %v, want Maybe", out.Result)
	}
}

// TestFigure1LoopCarried is Figure 1's right fragment: U: q->f = fun() with
// q advancing along link; the loop-carried output dependence is disproved by
// acyclic-list axioms and not disproved by circular-list axioms.
func TestFigure1LoopCarried(t *testing.T) {
	acyclic := NewTester(axiom.SinglyLinkedList("link"), prover.Options{})
	q := LoopCarried(acyclic.Axioms(), "_hq", pathexpr.MustParse("link"), pathexpr.Eps, "f", true)
	out := acyclic.DepTest(q)
	if out.Result != No {
		t.Fatalf("acyclic list loop = %v (%s), want No", out.Result, out.Reason)
	}
	if out.Kind != Output {
		t.Errorf("kind = %v, want output", out.Kind)
	}

	circular := NewTester(axiom.CircularList("link"), prover.Options{})
	q2 := LoopCarried(circular.Axioms(), "_hq", pathexpr.MustParse("link"), pathexpr.Eps, "f", true)
	out2 := circular.DepTest(q2)
	if out2.Result != Maybe {
		t.Fatalf("circular list loop = %v, want Maybe", out2.Result)
	}
}

// TestTheoremTEndToEnd is §5's loop L1 query through the deptest API.
func TestTheoremTEndToEnd(t *testing.T) {
	tr := NewTester(axiom.SparseMatrixCore(), prover.Options{})
	q := LoopCarried(tr.Axioms(), "_hr",
		pathexpr.MustParse("nrowE"),
		pathexpr.MustParse("ncolE+"),
		"val", true)
	out := tr.DepTest(q)
	if out.Result != No {
		t.Fatalf("Theorem T via deptest = %v (%s), want No\n%s",
			out.Result, out.Reason, out.Proof.Render())
	}
}

func TestRingDefiniteYesThroughEquality(t *testing.T) {
	tr := NewTester(axiom.RingOf("next", 3), prover.Options{})
	out := tr.DepTest(Query{
		Axioms: tr.Axioms(),
		S:      access("_h", "next", "v", true),
		T:      access("_h", "next.next.next.next", "v", false),
	})
	if out.Result != Yes {
		t.Fatalf("next vs next⁴ in 3-ring = %v, want Yes", out.Result)
	}
}

func TestAccessString(t *testing.T) {
	a := access("_h", "L.L", "d", true)
	if !strings.Contains(a.String(), "write") || !strings.Contains(a.String(), "_h") {
		t.Errorf("Access.String() = %q", a)
	}
	for _, r := range []Result{No, Yes, Maybe} {
		if r.String() == "invalid" {
			t.Errorf("missing Result string for %d", int(r))
		}
	}
}

// TestVerifyProofsMode: with VerifyProofs on, every No is backed by an
// independently checked derivation, and answers are unchanged across the
// corpus.
func TestVerifyProofsMode(t *testing.T) {
	plain := llTester()
	verified := llTester()
	verified.VerifyProofs = true
	ax := plain.Axioms()
	queries := []Query{
		{Axioms: ax, S: access("_h", "L.L.N", "d", true), T: access("_h", "L.R.N", "d", false)},
		{Axioms: ax, S: access("_h", "L.L.N.N", "d", true), T: access("_h", "L.R.N", "d", false)},
		{Axioms: ax, S: access("_h", "L", "d", true), T: access("_h", "R", "d", true)},
		{Axioms: ax, S: access("_hp", "N", "d", true), T: access("_hq", "N", "d", true), Relation: UnknownHandles},
		{Axioms: ax, S: access("_hp", "L", "d", true), T: access("_hq", "R", "d", true), Relation: UnknownHandles},
	}
	for i, q := range queries {
		a, b := plain.DepTest(q), verified.DepTest(q)
		if a.Result != b.Result {
			t.Errorf("query %d: plain %v, verified %v", i, a.Result, b.Result)
		}
	}
}
