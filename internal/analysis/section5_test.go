package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/prover"
)

// section5Src is the §5 scenario written in mini-C: a doubly nested walk
// over the element substructure of a sparse matrix, as factor's
// row-by-row/column-by-column steps perform.  The struct carries exactly
// the three axioms §5 lists.
const section5Src = `
struct Elem {
	struct Elem *ncolE;
	struct Elem *nrowE;
	double val;
	axioms {
		A1: forall p <> q, p.ncolE <> q.ncolE;
		A2: forall p, p.ncolE+ <> p.nrowE+;
		A3: forall p, p.(ncolE|nrowE)+ <> p.eps;
	}
};

void scaleRows(struct Elem *first) {
	struct Elem *r;
	struct Elem *e;
	r = first;
L1:	while (r != NULL) {
		e = r->ncolE;
L2:		while (e != NULL) {
S:			e->val = e->val * 2.0;
			e = e->ncolE;
		}
		r = r->nrowE;
	}
}
`

// TestSection5_TheoremTFromSource is the paper's headline analysis run,
// fully automatic: parse the kernel, collect access paths (handles,
// induction variables for both loop levels, star widening), build the
// loop-carried queries, and let APT prove both loops parallel.  The outer
// query is exactly Theorem T: ∀hr, hr.ncolE⁺ <> hr.nrowE⁺ncolE⁺.
func TestSection5_TheoremTFromSource(t *testing.T) {
	prog := lang.MustParse(section5Src)
	res, err := Analyze(prog, "scaleRows", Options{})
	if err != nil {
		t.Fatal(err)
	}

	accs := res.AccessesAt("S")
	var write *Access
	for i := range accs {
		if accs[i].IsWrite {
			write = &accs[i]
		}
	}
	if write == nil {
		t.Fatalf("no write access at S: %+v", accs)
	}
	// S must be anchored at both loops' iteration handles.
	if len(write.IterDeltas) != 2 {
		t.Fatalf("iteration deltas = %v, want one per loop level", write.IterDeltas)
	}

	queries, err := res.LoopCarriedQueries("S")
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 2 {
		t.Fatalf("got %d loop-carried queries, want 2 (L1 and L2)", len(queries))
	}

	tester := core.NewTester(res.Axioms, prover.Options{})
	sawTheoremT := false
	for _, q := range queries {
		out := tester.DepTest(q)
		if out.Result != core.No {
			t.Errorf("loop-carried query %v vs %v = %v (%s), want No",
				q.S, q.T, out.Result, out.Reason)
		}
		// The outer query's later-iteration path is nrowE⁺·ncolE·ncolE* —
		// Theorem T in the paper's original star spelling.
		if q.T.Path.String() == "nrowE+.ncolE.ncolE*" {
			sawTheoremT = true
		}
	}
	if !sawTheoremT {
		var got []string
		for _, q := range queries {
			got = append(got, q.T.Path.String())
		}
		t.Errorf("no query matched Theorem T's path; later-iteration paths: %v", got)
	}
}

// TestSection5_PartialAnalysisWithFillin adds the fill-in insertion (a store
// to a pointer field) into the loop: the simplistic analysis must now give
// up on the loop (axioms invalidated, §3.4), while the
// AssumeLoopInvariants analysis — the paper's "more sophisticated analysis
// capable of handling modifications" — still proves it parallel.  This is
// the partial/full split that produces Figure 7's two bands.
func TestSection5_PartialAnalysisWithFillin(t *testing.T) {
	src := `
struct Elem {
	struct Elem *ncolE;
	struct Elem *nrowE;
	double val;
	axioms {
		A1: forall p <> q, p.ncolE <> q.ncolE;
		A2: forall p, p.ncolE+ <> p.nrowE+;
		A3: forall p, p.(ncolE|nrowE)+ <> p.eps;
	}
};

void eliminate(struct Elem *first, struct Elem *fill) {
	struct Elem *r;
	r = first;
	while (r != NULL) {
S:		r->val = r->val - 1.0;
		r->ncolE = fill;
		r = r->nrowE;
	}
}
`
	prog := lang.MustParse(src)

	partial, err := Analyze(prog, "eliminate", Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := partial.LoopCarriedQueries("S")
	if err != nil {
		t.Fatal(err)
	}
	tester := core.NewTester(partial.Axioms, prover.Options{})
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.Maybe {
			t.Errorf("partial analysis across fill-in = %v, want Maybe", out.Result)
		}
	}

	full, err := Analyze(prog, "eliminate", Options{AssumeLoopInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err = full.LoopCarriedQueries("S")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if out := tester.DepTest(q); out.Result != core.No {
			t.Errorf("full analysis across fill-in = %v, want No", out.Result)
		}
	}
}

// TestSection5_InnerLoopHandles: within one outer iteration, the inner
// iteration handle anchors the precise per-element paths.
func TestSection5_InnerLoopHandles(t *testing.T) {
	prog := lang.MustParse(section5Src)
	res, err := Analyze(prog, "scaleRows", Options{})
	if err != nil {
		t.Fatal(err)
	}
	accs := res.AccessesAt("S")
	for _, a := range accs {
		foundInner := false
		for _, d := range a.IterDeltas {
			if d.Path.String() == "ncolE" {
				foundInner = true
				if got, _ := a.Paths.Get(d.Handle); got == nil || got.String() != "ε" {
					t.Errorf("inner-iteration path = %s, want ε", got)
				}
			}
		}
		if !foundInner {
			t.Errorf("access %v lacks the inner iteration anchor", a)
		}
	}
}

// TestNestedLoopQueryOrderIsStable expands the doubly nested §5 kernel's
// loop and cross-iteration lines 100 times, each over a fresh analysis:
// the write at S carries one iteration handle per loop level, and the
// queries built from them must come out in one order every time.
func TestNestedLoopQueryOrderIsStable(t *testing.T) {
	prog := lang.MustParse(section5Src)
	lines := []string{"loop S", "cross S S"}
	render := func() string {
		res, err := Analyze(prog, "scaleRows", Options{})
		if err != nil {
			t.Fatal(err)
		}
		qs, _, err := res.ExpandQueryLines(lines, func(n int) string { return lines[n] })
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, q := range qs {
			fmt.Fprintf(&b, "%s | %s\n", q.S, q.T)
		}
		return b.String()
	}
	want := render()
	if strings.Count(want, "\n") < 4 {
		t.Fatalf("want at least two queries per line, got:\n%s", want)
	}
	for i := 0; i < 100; i++ {
		if got := render(); got != want {
			t.Fatalf("expansion %d differs:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}
