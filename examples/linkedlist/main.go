// Figure 1's loop, analyzed automatically from source.
//
// The mini-C frontend parses the list-update loop, the flow analysis
// discovers that q is an induction variable (handles and the
// self-relative-assignment rule, §3.3), and APT disproves the loop-carried
// output dependence on statement U.  The k-limited baseline, by contrast,
// can only prove the first k iterations independent (§2.3).
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

const src = `
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

func main() {
	prog := lang.MustParse(src)
	res, err := analysis.Analyze(prog, "update", analysis.Options{})
	if err != nil {
		panic(err)
	}

	fmt.Println("accesses found at U:")
	for _, a := range res.AccessesAt("U") {
		fmt.Printf("  %s->%s (write=%v), paths:\n", a.Var, a.Field, a.IsWrite)
		for _, p := range a.Paths {
			fmt.Printf("    %s.%s\n", p.Handle, p.Path)
		}
	}

	queries, err := res.LoopCarriedQueries("U")
	if err != nil {
		panic(err)
	}
	tester := core.NewTester(res.Axioms, prover.Options{})
	for _, q := range queries {
		out := tester.DepTest(q)
		fmt.Printf("\nloop-carried %v dependence on U?  %v — %s\n", out.Kind, out.Result, out.Reason)
	}

	// The k-limited baseline on the same loop.
	for _, k := range []int{1, 2, 4} {
		kl := baseline.NewKLimited(k, axiom.SinglyLinkedList("link"))
		upTo, res := kl.LoopIndependent(pathexpr.MustParse("link"), pathexpr.Eps)
		fmt.Printf("k-limited (k=%d): iterations 0..%d proved independent, whole loop: %v\n", k, upTo-1, res)
	}

	// Same loop over a circular list: APT correctly refuses.
	circular := core.NewTester(axiom.CircularList("link"), prover.Options{})
	q := core.LoopCarried(circular.Axioms(), "_hq", pathexpr.MustParse("link"), pathexpr.Eps, "f", true)
	fmt.Printf("\nsame loop, circular list: %v (the wraparound is a real dependence)\n",
		circular.DepTest(q).Result)

	// §3.2's "perhaps automatically verified": check dynamically that the
	// program's own mutators maintain the declared axioms.
	mutators := lang.MustParse(`
struct Node { struct Node *link; int f; };
void insertFront(struct Node *head) {
	struct Node *n;
	n = malloc(struct Node);
	n->link = head;
}
void breakIt(struct Node *head) {
	head->link = head;
}
`)
	gen := func(rng *rand.Rand) interp.Instance {
		g, head := heap.BuildList(1+rng.Intn(6), "link")
		return interp.Instance{Graph: g, Args: []interp.Value{interp.Ptr(head)}}
	}
	okErr := interp.MaintainsAxioms(mutators, "insertFront", axiom.SinglyLinkedList("link"), gen, 20, 1)
	fmt.Printf("\ninsertFront maintains the list axioms: %v\n", okErr == nil)
	badErr := interp.MaintainsAxioms(mutators, "breakIt", axiom.SinglyLinkedList("link"), gen, 20, 1)
	fmt.Printf("breakIt caught violating them: %v\n", badErr != nil)
}
