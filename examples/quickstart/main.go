// Quickstart: the paper's §3.3 example in a few dozen lines.
//
// A leaf-linked binary tree is described by four aliasing axioms
// (Figure 3).  The program writes p->d where p = root.LLN and then reads
// q->d where q = root.LRN.  APT proves the two accesses can never touch the
// same vertex, so the statements are independent — a proof the
// Larus-Hilfinger intersection test cannot make (§2.4).
package main

import (
	"fmt"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

func main() {
	// 1. Describe the data structure with aliasing axioms.  These are
	//    Figure 3's axioms, verbatim.
	tree := axiom.MustParseSet("LLBinaryTree", `
		A1: forall p, p.L <> p.R
		A2: forall p <> q, p.(L|R) <> q.(L|R)
		A3: forall p <> q, p.N <> q.N
		A4: forall p, p.(L|R|N)+ <> p.ε
	`)
	fmt.Print(tree)

	// 2. State the two accesses: both anchored at the handle _hroot, with
	//    the access paths the flow analysis collected (see cmd/aptdep for
	//    the automatic version).
	q := core.Query{
		Axioms: tree,
		S: core.Access{
			Handle: "_hroot", Path: pathexpr.MustParse("L.L.N"),
			Field: "d", IsWrite: true, Type: "LLBinaryTree",
		},
		T: core.Access{
			Handle: "_hroot", Path: pathexpr.MustParse("L.R.N"),
			Field: "d", IsWrite: false, Type: "LLBinaryTree",
		},
	}

	// 3. Run deptest.
	tester := core.NewTester(tree, prover.Options{})
	out := tester.DepTest(q)
	fmt.Printf("\nIs T dependent on S?  %v (%s, %s dependence)\n\n", out.Result, out.Reason, out.Kind)

	// 4. Inspect the machine-found proof — compare with the paper's
	//    paraphrased derivation in §3.3 — and re-validate it with the
	//    independent checker.
	fmt.Print(out.Proof.Render())
	if err := tester.Prover().CheckProof(out.Proof); err != nil {
		panic(err)
	}
	fmt.Println("derivation independently re-validated ✓")

	// 5. A query the axioms cannot decide: LLNN and LRN reach the same
	//    leaf in Figure 3's tree, so deptest answers Maybe.
	q.S.Path = pathexpr.MustParse("L.L.N.N")
	fmt.Printf("\nLLNN vs LRN: %v (%s)\n", tester.DepTest(q).Result, tester.DepTest(q).Reason)
}
