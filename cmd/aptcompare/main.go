// Command aptcompare runs the paper's query corpus head-to-head: APT
// against the Larus–Hilfinger path-expression intersection test [LH88] and
// a k-limited store-based test [JM82-style].  The corpus covers the queries
// the paper discusses: §2.4's leaf-linked tree accesses, §5's Theorem T,
// linked-list loops, and pure-tree queries where prior work is already
// precise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/axiom"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

type query struct {
	name      string
	axioms    func() *axiom.Set
	p1, p2    string
	reference string
}

var corpus = []query{
	{"LLN vs LRN (leaf-linked tree)", axiom.LeafLinkedBinaryTree, "L.L.N", "L.R.N", "§3.3"},
	{"LLNN vs LRN (same leaf!)", axiom.LeafLinkedBinaryTree, "L.L.N.N", "L.R.N", "§2.4"},
	{"LL vs LR (pure tree)", axiom.LeafLinkedBinaryTree, "L.L", "L.R", "§2.4"},
	{"Theorem T (sparse rows)", axiom.SparseMatrixCore, "ncolE+", "nrowE+ncolE+", "§5"},
	{"Theorem T (full Appendix A)", axiom.SparseMatrix, "ncolE+", "nrowE+ncolE+", "App. A"},
	{"inner loop L2 (sparse cols)", axiom.SparseMatrix, "nrowE+", "ncolE+nrowE+", "§5"},
	{"list loop, iteration i vs j", func() *axiom.Set { return axiom.SinglyLinkedList("link") }, "ε", "link+", "Fig. 1"},
	{"circular list (must stay Maybe)", func() *axiom.Set { return axiom.CircularList("link") }, "ε", "link+", "§3.1"},
	{"identical paths (definite Yes)", axiom.LeafLinkedBinaryTree, "L.L.N", "L.L.N", "§4.1"},
	{"2-D range tree inner trees", axiom.TwoDRangeTree, "L.aux.l", "L.aux.r", "§3.1"},
	{"skip list, base walk", func() *axiom.Set { return axiom.SkipList("n0", "n1") }, "ε", "n0+", "§1"},
	{"skip list, express vs base", func() *axiom.Set { return axiom.SkipList("n0", "n1") }, "n1", "n0.n0", "§1"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bindings, so tests can drive the
// whole CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 2, "k for the k-limited baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fmt.Fprintf(stdout, "%-34s %-8s %-8s %-8s %-8s %s\n", "query", "APT", "LH88", "HN90", fmt.Sprintf("k-lim(%d)", *k), "")
	for _, c := range corpus {
		set := c.axioms()
		q := core.Query{
			Axioms: set,
			S:      core.Access{Handle: "_h", Path: pathexpr.MustParseAlphabet(c.p1, set.Fields()), Field: "d", IsWrite: true},
			T:      core.Access{Handle: "_h", Path: pathexpr.MustParseAlphabet(c.p2, set.Fields()), Field: "d", IsWrite: false},
		}
		apt := core.NewTester(set, prover.Options{}).DepTest(q).Result
		lh := baseline.NewLarusHilfinger(set).DepTest(q)
		hn := baseline.NewHendrenNicolau(set).DepTest(q)
		kl := baseline.NewKLimited(*k, set).DepTest(q)
		fmt.Fprintf(stdout, "%-34s %-8v %-8v %-8v %-8v %-10s\n", c.name, apt, lh, hn, kl, c.reference)
	}

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "loop-carried, whole loop (k-limited proves only the first k iterations):")
	kl2 := baseline.NewKLimited(*k, axiom.SinglyLinkedList("link"))
	upTo, res := kl2.LoopIndependent(pathexpr.MustParse("link"), pathexpr.Eps)
	fmt.Fprintf(stdout, "  list loop: k-limited proves iterations 0..%d independent, overall %v\n", upTo-1, res)
	apt := core.NewTester(axiom.SinglyLinkedList("link"), prover.Options{})
	lc := core.LoopCarried(apt.Axioms(), "_h", pathexpr.MustParse("link"), pathexpr.Eps, "f", true)
	fmt.Fprintf(stdout, "  list loop: APT proves all iterations independent: %v\n", apt.DepTest(lc).Result)
	return 0
}
