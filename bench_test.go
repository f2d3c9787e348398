package repro_test

// One benchmark per paper table/figure, plus the ablations listed in
// DESIGN.md §5.  Run with:
//
//	go test -bench=. -benchmem
//
// The Figure 7 benchmarks time the regeneration machinery itself (factor
// trace + simulated machine); the table's *values* are produced by
// cmd/sparsebench and recorded in EXPERIMENTS.md.

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/parallel"
	"repro/internal/pathexpr"
	"repro/internal/prover"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// --- §3.3: the worked example ------------------------------------------

// BenchmarkSection33_Proof times the prover on the paper's
// _hroot.LLN <> _hroot.LRN theorem (fresh prover per iteration: no caching
// across runs).
func BenchmarkSection33_Proof(b *testing.B) {
	x := pathexpr.MustParse("L.L.N")
	y := pathexpr.MustParse("L.R.N")
	for i := 0; i < b.N; i++ {
		p := prover.New(axiom.LeafLinkedBinaryTree(), prover.Options{})
		if p.Prove(prover.SameSrc, x, y).Result != prover.Proved {
			b.Fatal("proof lost")
		}
	}
}

// BenchmarkSection33_DepTest times the full deptest front door.
func BenchmarkSection33_DepTest(b *testing.B) {
	q := core.Query{
		S: core.Access{Handle: "_h", Path: pathexpr.MustParse("L.L.N"), Field: "d", IsWrite: true},
		T: core.Access{Handle: "_h", Path: pathexpr.MustParse("L.R.N"), Field: "d"},
	}
	for i := 0; i < b.N; i++ {
		q.Axioms = axiom.LeafLinkedBinaryTree()
		t := core.NewTester(q.Axioms, prover.Options{})
		if t.DepTest(q).Result != core.No {
			b.Fatal("answer lost")
		}
	}
}

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

// BenchmarkSection33_Pipeline times parse + APM analysis + query extraction
// + deptest, end to end from source text (the APM tables of §3.3).
func BenchmarkSection33_Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := lang.Parse(section33Src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := analysis.Analyze(prog, "subr", analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		qs, err := res.QueriesBetween("S", "T")
		if err != nil {
			b.Fatal(err)
		}
		t := core.NewTester(res.Axioms, prover.Options{})
		if t.DepTest(qs[0]).Result != core.No {
			b.Fatal("answer lost")
		}
	}
}

// --- §5: Theorem T -------------------------------------------------------

func BenchmarkTheoremT_CoreAxioms(b *testing.B) {
	x := pathexpr.MustParse("ncolE+")
	y := pathexpr.MustParse("nrowE+ncolE+")
	for i := 0; i < b.N; i++ {
		p := prover.New(axiom.SparseMatrixCore(), prover.Options{})
		if p.Prove(prover.SameSrc, x, y).Result != prover.Proved {
			b.Fatal("proof lost")
		}
	}
}

func BenchmarkTheoremT_AppendixA(b *testing.B) {
	x := pathexpr.MustParse("ncolE+")
	y := pathexpr.MustParse("nrowE+ncolE+")
	for i := 0; i < b.N; i++ {
		p := prover.New(axiom.SparseMatrix(), prover.Options{})
		if p.Prove(prover.SameSrc, x, y).Result != prover.Proved {
			b.Fatal("proof lost")
		}
	}
}

// --- Figure 7 -------------------------------------------------------------

var (
	figure7Once sync.Once
	figure7W    sched.Workload
	figure7M    *sparse.Matrix
)

// figure7Workload builds a mid-size workload once (the paper-scale run
// lives in cmd/sparsebench).
func figure7Workload(b *testing.B) (sched.Workload, *sparse.Matrix) {
	b.Helper()
	figure7Once.Do(func() {
		rng := rand.New(rand.NewSource(1994))
		figure7M = sparse.RandomCircuit(rng, 400, 2400)
		lu, err := figure7M.Factor()
		if err != nil {
			panic(err)
		}
		figure7W = sched.Workload{
			Scale:  figure7M.ScaleTrace(),
			Factor: lu.Trace,
			Solve:  lu.SolveTrace(),
		}
	})
	return figure7W, figure7M
}

// BenchmarkFigure7_SimulatePartial times the simulated-machine replay for
// the partial row of Figure 7 (2/4/7 PEs).
func BenchmarkFigure7_SimulatePartial(b *testing.B) {
	w, _ := figure7Workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []int{2, 4, 7} {
			if sched.Speedup(w.Factor, p, sched.Partial, sched.DefaultBarrierCost) < 1 {
				b.Fatal("speedup below 1")
			}
		}
	}
}

// BenchmarkFigure7_SimulateFull is the full-analysis row.
func BenchmarkFigure7_SimulateFull(b *testing.B) {
	w, _ := figure7Workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []int{2, 4, 7} {
			if sched.Speedup(w.Factor, p, sched.Full, sched.DefaultBarrierCost) < 1 {
				b.Fatal("speedup below 1")
			}
		}
	}
}

// BenchmarkFigure7_FactorSequential times the underlying factorization.
func BenchmarkFigure7_FactorSequential(b *testing.B) {
	_, m := figure7Workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Factor(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_FactorParallelLive runs the goroutine execution of the
// fully parallelized factorization (wall-clock speedup requires more than
// this host's cores; the benchmark demonstrates executability and overhead).
func BenchmarkFigure7_FactorParallelLive(b *testing.B) {
	_, m := figure7Workload(b)
	pool := parallel.NewPool(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FactorParallel(pool, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_ScaleSolve times the linear phases.
func BenchmarkFigure7_ScaleSolve(b *testing.B) {
	_, m := figure7Workload(b)
	lu, err := m.Factor()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i)
	}
	rhs := m.MulVec(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scale(1.0)
		_ = lu.Solve(rhs)
	}
}

// --- §2.4 baselines --------------------------------------------------------

func BenchmarkBaseline_LarusHilfinger(b *testing.B) {
	q := core.Query{
		S: core.Access{Handle: "_h", Path: pathexpr.MustParse("L.L.N"), Field: "d", IsWrite: true},
		T: core.Access{Handle: "_h", Path: pathexpr.MustParse("L.R.N"), Field: "d"},
	}
	for i := 0; i < b.N; i++ {
		lh := baseline.NewLarusHilfinger(axiom.LeafLinkedBinaryTree())
		if lh.DepTest(q) != core.Maybe {
			b.Fatal("baseline answer lost")
		}
	}
}

func BenchmarkBaseline_KLimited(b *testing.B) {
	q := core.Query{
		S: core.Access{Handle: "_h", Path: pathexpr.MustParse("L.L.N"), Field: "d", IsWrite: true},
		T: core.Access{Handle: "_h", Path: pathexpr.MustParse("L.R.N"), Field: "d"},
	}
	for i := 0; i < b.N; i++ {
		kl := baseline.NewKLimited(2, axiom.LeafLinkedBinaryTree())
		if kl.DepTest(q) != core.Maybe {
			b.Fatal("baseline answer lost")
		}
	}
}

// --- Automata layer ---------------------------------------------------------

// BenchmarkAutomata_Inclusion times the RE ⊆ RE decision the prover leans
// on (§4.1: DFA intersection with a complement).
func BenchmarkAutomata_Inclusion(b *testing.B) {
	sub := pathexpr.MustParse("nrowE+ncolE+")
	sup := pathexpr.MustParse("(ncolE|nrowE)+")
	a := automata.AlphabetOf(sub, sup)
	for i := 0; i < b.N; i++ {
		ds, err := automata.Compile(sub, a)
		if err != nil {
			b.Fatal(err)
		}
		dp, err := automata.Compile(sup, a)
		if err != nil {
			b.Fatal(err)
		}
		if !ds.Includes(dp) {
			b.Fatal("inclusion lost")
		}
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------

// theoremTUnderOptions proves Theorem T n times under the given options.
func theoremTUnderOptions(b *testing.B, opts prover.Options) {
	b.Helper()
	x := pathexpr.MustParse("ncolE+")
	y := pathexpr.MustParse("nrowE+ncolE+")
	for i := 0; i < b.N; i++ {
		p := prover.New(axiom.SparseMatrix(), opts)
		if p.Prove(prover.SameSrc, x, y).Result != prover.Proved {
			b.Fatal("proof lost")
		}
	}
}

func BenchmarkAblation_SuffixShortestFirst(b *testing.B) {
	theoremTUnderOptions(b, prover.Options{})
}
func BenchmarkAblation_SuffixLongestFirst(b *testing.B) {
	theoremTUnderOptions(b, prover.Options{LongestSuffixFirst: true})
}

func BenchmarkAblation_MinimizeOn(b *testing.B) { theoremTUnderOptions(b, prover.Options{}) }
func BenchmarkAblation_MinimizeOff(b *testing.B) {
	theoremTUnderOptions(b, prover.Options{DisableMinimize: true})
}

// BenchmarkAblation_BarrierSweep regenerates the Figure 7 full row at three
// barrier costs (the model's one calibrated parameter).
func BenchmarkAblation_BarrierSweep(b *testing.B) {
	w, _ := figure7Workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cost := range []int64{0, 200, 1000} {
			if sched.Speedup(w.Factor, 7, sched.Full, cost) < 1 {
				b.Fatal("speedup below 1")
			}
		}
	}
}

// --- §4.2 complexity scaling -------------------------------------------------

// complexityGoal proves a path pair whose component count is n: the
// loop-carried list query shifted k links in (word prefixes grow the suffix
// split space quadratically, matching the paper's O(n²) proof-set bound).
func complexityGoal(b *testing.B, n int) {
	b.Helper()
	w1 := make([]string, n)
	for i := range w1 {
		w1[i] = "link"
	}
	x := pathexpr.FromWord(w1)
	y := pathexpr.Cat(pathexpr.FromWord(w1), pathexpr.Rep1(pathexpr.F("link")))
	for i := 0; i < b.N; i++ {
		p := prover.New(axiom.SinglyLinkedList("link"), prover.Options{})
		if p.Prove(prover.SameSrc, x, y).Result != prover.Proved {
			b.Fatal("proof lost")
		}
	}
}

func BenchmarkComplexity_Paths2(b *testing.B)  { complexityGoal(b, 2) }
func BenchmarkComplexity_Paths4(b *testing.B)  { complexityGoal(b, 4) }
func BenchmarkComplexity_Paths8(b *testing.B)  { complexityGoal(b, 8) }
func BenchmarkComplexity_Paths16(b *testing.B) { complexityGoal(b, 16) }

// complexityNested proves Theorem T with its column path nested k deep,
// ∀h, h.(ncolE+.)ᵏncolE <> h.nrowE+.(ncolE+.)ᵏncolE.  The direct checks
// above settle each Paths goal in one step; here every level adds a
// plus induction, so the sub-goals a search meets grow with k.  The goals
// one proof examines are reported beside its time.
func complexityNested(b *testing.B, k int) {
	b.Helper()
	cols := strings.Repeat("ncolE+.", k) + "ncolE"
	x, y := pathexpr.MustParse(cols), pathexpr.MustParse("nrowE+."+cols)
	goals := 0
	for i := 0; i < b.N; i++ {
		pf := prover.New(axiom.SparseMatrixCore(), prover.Options{}).Prove(prover.SameSrc, x, y)
		if pf.Result != prover.Proved {
			b.Fatal("proof lost")
		}
		goals = pf.Stats.ProveCalls
	}
	b.ReportMetric(float64(goals), "goals/op")
}

func BenchmarkComplexity_Nested1(b *testing.B) { complexityNested(b, 1) }
func BenchmarkComplexity_Nested2(b *testing.B) { complexityNested(b, 2) }
func BenchmarkComplexity_Nested3(b *testing.B) { complexityNested(b, 3) }
func BenchmarkComplexity_Nested4(b *testing.B) { complexityNested(b, 4) }

// BenchmarkProofCheck times the independent re-validation of the Theorem T
// derivation (prover.CheckProof).
func BenchmarkProofCheck(b *testing.B) {
	p := prover.New(axiom.SparseMatrixCore(), prover.Options{})
	proof := p.Prove(prover.SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+ncolE+"))
	if proof.Result != prover.Proved {
		b.Fatal("proof lost")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.CheckProof(proof); err != nil {
			b.Fatal(err)
		}
	}
}
