package baseline

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

func q(handle, p1, p2 string) core.Query {
	return core.Query{
		S: core.Access{Handle: handle, Path: pathexpr.MustParse(p1), Field: "d", IsWrite: true},
		T: core.Access{Handle: handle, Path: pathexpr.MustParse(p2), Field: "d", IsWrite: false},
	}
}

// aptQ is q carrying the APT tester's axiom set, which every query the
// tester answers must name (the baselines ignore it).
func aptQ(apt *core.Tester, handle, p1, p2 string) core.Query {
	query := q(handle, p1, p2)
	query.Axioms = apt.Axioms()
	return query
}

func TestFieldGroups(t *testing.T) {
	groups := FieldGroups(axiom.LeafLinkedBinaryTree())
	var got [][]string
	for _, g := range groups {
		s := append([]string{}, g...)
		sort.Strings(s)
		got = append(got, s)
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	want := [][]string{{"L", "R"}, {"N"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

func TestTreeCertified(t *testing.T) {
	llt := prover.New(axiom.LeafLinkedBinaryTree(), prover.Options{})
	if !TreeCertified(llt, []string{"L", "R"}) {
		t.Error("L/R substructure of a leaf-linked tree should certify as a tree")
	}
	if TreeCertified(llt, []string{"L", "R", "N"}) {
		t.Error("the full leaf-linked structure is a DAG, not a tree")
	}
	sm := prover.New(axiom.SparseMatrixCore(), prover.Options{})
	if TreeCertified(sm, []string{"ncolE", "nrowE"}) {
		t.Error("sparse element structure is a DAG, not a tree")
	}
	list := prover.New(axiom.SinglyLinkedList("next"), prover.Options{})
	if !TreeCertified(list, []string{"next"}) {
		t.Error("an acyclic list is a (degenerate) tree")
	}
	ring := prover.New(axiom.CircularList("next"), prover.Options{})
	if TreeCertified(ring, []string{"next"}) {
		t.Error("a possibly-circular list must not certify")
	}
}

// TestProductOverBudgetIsMaybe is the regression test for a panic in the
// baselines: (L^127)* and (L^131)* each compile within the default state
// budget, but their product has lcm(127, 131) = 16,637 states, past the
// default 16,384.  A baseline must answer Maybe, as it does when a compile
// blows the budget.
func TestProductOverBudgetIsMaybe(t *testing.T) {
	cycle := func(n int) string { return "(" + strings.TrimSuffix(strings.Repeat("L.", n), ".") + ")*" }
	query := q("_hroot", cycle(127), cycle(131))
	tree := axiom.BinaryTree("L", "R")
	for _, tc := range []struct {
		name string
		test func(core.Query) core.Result
	}{
		{"LarusHilfinger", NewLarusHilfinger(tree).DepTest},
		{"KLimited", NewKLimited(2, tree).DepTest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.test(query); got != core.Maybe {
				t.Errorf("over-budget product answered %v, want Maybe", got)
			}
		})
	}

	// Hendren–Nicolau only intersects path-matrix paths (a word, then at
	// most one trailing single-field closure), whose products grow
	// linearly, so reaching the default budget takes ~8,000-state chains.
	// A tighter cache shows the same thing cheaply: L^40 and R^40 compile
	// in 42 states each, their product needs 82, and the answer must
	// follow the cache's budget rather than a private default one.
	hn := NewHendrenNicolau(tree)
	hn.dfas = automata.NewSharedCache(64, 1, 0)
	word := func(f string) string { return strings.TrimSuffix(strings.Repeat(f+".", 40), ".") }
	if got := hn.DepTest(q("_hroot", word("L"), word("R"))); got != core.Maybe {
		t.Errorf("HendrenNicolau: over-budget product answered %v, want Maybe", got)
	}
}

// TestLarusSection24 reproduces §2.4's account: on the leaf-linked tree,
// LLN vs LRN must widen to (L|R)+N+ vs (L|R)+N+ and therefore report Maybe,
// even though APT proves No.  Pure-tree queries stay precise.
func TestLarusSection24(t *testing.T) {
	lh := NewLarusHilfinger(axiom.LeafLinkedBinaryTree())
	if got := lh.DepTest(q("_hroot", "L.L.N", "L.R.N")); got != core.Maybe {
		t.Errorf("LH88 on LLN vs LRN = %v, want Maybe (widened intersection non-empty)", got)
	}
	// Precise on the tree-only substructure.
	if got := lh.DepTest(q("_hroot", "L.L", "L.R")); got != core.No {
		t.Errorf("LH88 on LL vs LR = %v, want No (exact tree naming)", got)
	}
	if got := lh.DepTest(q("_hroot", "L", "R")); got != core.No {
		t.Errorf("LH88 on L vs R = %v, want No", got)
	}
	// Identical paths: definite conflict.
	if got := lh.DepTest(q("_hroot", "L.L.N", "L.L.N")); got != core.Yes {
		t.Errorf("LH88 on identical paths = %v, want Yes", got)
	}
	// APT must beat LH88 on the widened query.
	apt := core.NewTester(axiom.LeafLinkedBinaryTree(), prover.Options{})
	if out := apt.DepTest(aptQ(apt, "_hroot", "L.L.N", "L.R.N")); out.Result != core.No {
		t.Errorf("APT on LLN vs LRN = %v, want No", out.Result)
	}
}

// TestLarusTheoremT: the paper (§5) — "T cannot be proven by simply
// intersecting the given path expressions ... resulting in a non-empty
// intersection and thus an unsuccessful proof."
func TestLarusTheoremT(t *testing.T) {
	lh := NewLarusHilfinger(axiom.SparseMatrixCore())
	got := lh.DepTest(q("_hr", "ncolE+", "nrowE+ncolE+"))
	if got != core.Maybe {
		t.Fatalf("LH88 on Theorem T = %v, want Maybe", got)
	}
	apt := core.NewTester(axiom.SparseMatrixCore(), prover.Options{})
	if out := apt.DepTest(aptQ(apt, "_hr", "ncolE+", "nrowE+ncolE+")); out.Result != core.No {
		t.Fatalf("APT on Theorem T = %v, want No", out.Result)
	}
}

func TestLarusStructuralChecks(t *testing.T) {
	lh := NewLarusHilfinger(axiom.LeafLinkedBinaryTree())
	query := q("_h", "L", "L")
	query.S.Field, query.T.Field = "d1", "d2"
	if got := lh.DepTest(query); got != core.No {
		t.Errorf("distinct fields = %v, want No", got)
	}
	rr := q("_h", "L", "L")
	rr.S.IsWrite = false
	if got := lh.DepTest(rr); got != core.No {
		t.Errorf("read-read = %v, want No", got)
	}
	diff := q("_hp", "L", "R")
	diff.T.Handle = "_hq"
	if got := lh.DepTest(diff); got != core.Maybe {
		t.Errorf("different handles = %v, want Maybe", got)
	}
	typed := q("_h", "L", "L")
	typed.S.Type, typed.T.Type = "A", "B"
	if got := lh.DepTest(typed); got != core.No {
		t.Errorf("different types = %v, want No", got)
	}
}

// TestKLimitedLoop reproduces §2.3: "at best the dependence test will prove
// that only the first k iterations are independent".
func TestKLimitedLoop(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		kl := NewKLimited(k, axiom.SinglyLinkedList("link"))
		upTo, res := kl.LoopIndependent(pathexpr.MustParse("link"), pathexpr.Eps)
		if res != core.Maybe {
			t.Errorf("k=%d: loop result %v, want Maybe", k, res)
		}
		if upTo != k+1 {
			// Iterations 0..k touch depths 0..k, all within the k-limit.
			t.Errorf("k=%d: independent iterations = %d, want %d", k, upTo, k+1)
		}
	}
	// APT proves the whole loop independent.
	apt := core.NewTester(axiom.SinglyLinkedList("link"), prover.Options{})
	lc := core.LoopCarried(apt.Axioms(), "_h", pathexpr.MustParse("link"), pathexpr.Eps, "f", true)
	if out := apt.DepTest(lc); out.Result != core.No {
		t.Errorf("APT on list loop = %v, want No", out.Result)
	}
}

func TestKLimitedPairQueries(t *testing.T) {
	kl := NewKLimited(2, axiom.LeafLinkedBinaryTree())
	// Short distinct tree paths within k: No.
	if got := kl.DepTest(q("_h", "L.L", "L.R")); got != core.No {
		t.Errorf("k-limited LL vs LR = %v, want No", got)
	}
	// Paths leaving the k-limit on both sides: Maybe.
	if got := kl.DepTest(q("_h", "L.L.N", "L.R.N")); got != core.Maybe {
		t.Errorf("k-limited LLN vs LRN (k=2) = %v, want Maybe", got)
	}
	// Identical word: Yes.
	if got := kl.DepTest(q("_h", "L.L", "L.L")); got != core.Yes {
		t.Errorf("k-limited identical = %v, want Yes", got)
	}
	// Distinct fields: No.
	query := q("_h", "L", "L")
	query.S.Field = "other"
	if got := kl.DepTest(query); got != core.No {
		t.Errorf("k-limited distinct fields = %v, want No", got)
	}
}

func TestKLimitedTheoremT(t *testing.T) {
	kl := NewKLimited(2, axiom.SparseMatrixCore())
	if got := kl.DepTest(q("_hr", "ncolE+", "nrowE+ncolE+")); got != core.Maybe {
		t.Fatalf("k-limited on Theorem T = %v, want Maybe", got)
	}
	upTo, res := kl.LoopIndependent(pathexpr.MustParse("nrowE"), pathexpr.MustParse("ncolE+"))
	if res != core.Maybe || upTo != 0 {
		t.Fatalf("k-limited sparse loop = (%d, %v), want (0, Maybe): the element DAG defeats short names too", upTo, res)
	}
}

func TestKLimitedNonAdvancingLoop(t *testing.T) {
	kl := NewKLimited(2, axiom.SinglyLinkedList("link"))
	upTo, res := kl.LoopIndependent(pathexpr.Eps, pathexpr.MustParse("link"))
	if upTo != 0 || res != core.Maybe {
		t.Errorf("non-advancing loop = (%d, %v), want (0, Maybe)", upTo, res)
	}
}

// TestComparisonCorpus is the head-to-head table recorded in
// EXPERIMENTS.md: for each named query, APT answers No while both baselines
// answer Maybe — or all agree where prior work is already precise.
func TestComparisonCorpus(t *testing.T) {
	type row struct {
		name      string
		axioms    *axiom.Set
		p1, p2    string
		wantAPT   core.Result
		wantLarus core.Result
		wantKLim  core.Result
	}
	rows := []row{
		{"LLN-vs-LRN", axiom.LeafLinkedBinaryTree(), "L.L.N", "L.R.N", core.No, core.Maybe, core.Maybe},
		{"TheoremT", axiom.SparseMatrixCore(), "ncolE+", "nrowE+ncolE+", core.No, core.Maybe, core.Maybe},
		{"tree-LL-vs-LR", axiom.LeafLinkedBinaryTree(), "L.L", "L.R", core.No, core.No, core.No},
		// [LH88]-style path methods are precise on lists (§1, §2.4), so the
		// baseline correctly answers No here; the k-limited scheme answers
		// No for this fixed-handle pair but can never prove the whole loop
		// independent (see TestKLimitedLoop).
		{"list-loop", axiom.SinglyLinkedList("link"), "ε", "link+", core.No, core.No, core.No},
		{"identical", axiom.LeafLinkedBinaryTree(), "L.L", "L.L", core.Yes, core.Yes, core.Yes},
	}
	for _, r := range rows {
		apt := core.NewTester(r.axioms, prover.Options{})
		lh := NewLarusHilfinger(r.axioms)
		kl := NewKLimited(2, r.axioms)
		query := aptQ(apt, "_h", r.p1, r.p2)
		if got := apt.DepTest(query).Result; got != r.wantAPT {
			t.Errorf("%s: APT = %v, want %v", r.name, got, r.wantAPT)
		}
		if got := lh.DepTest(query); got != r.wantLarus {
			t.Errorf("%s: LH88 = %v, want %v", r.name, got, r.wantLarus)
		}
		if got := kl.DepTest(query); got != r.wantKLim {
			t.Errorf("%s: k-limited = %v, want %v", r.name, got, r.wantKLim)
		}
	}
}

// prover0 returns default prover options (helper shared by baseline tests).
func prover0() prover.Options { return prover.Options{} }
