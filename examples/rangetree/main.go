// Two-dimensional range trees (§3.1): a leaf-linked tree of leaf-linked
// trees, the computational-geometry structure the paper cites as a
// complicated shape its axiom language still captures.
//
// The example model-checks the axiom set against a concrete instance built
// in the heap package, then runs dependence queries that exploit the
// disjointness of the secondary trees hanging off different primary leaves.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// buildRangeTree constructs a concrete 2-D range tree: a complete primary
// leaf-linked tree of the given depth whose every leaf owns a secondary
// leaf-linked tree (fields l/r/n) through aux.
func buildRangeTree(depth, innerDepth int) (*heap.Graph, heap.Vertex) {
	g, root := heap.BuildLeafLinkedTree(depth)
	firstLeaf := (1 << depth) - 1
	lastLeaf := (1 << (depth + 1)) - 1
	for leaf := firstLeaf; leaf < lastLeaf; leaf++ {
		// Graft an inner tree: replicate BuildLeafLinkedTree vertices with
		// lower-case fields.
		inner, innerRoot := heap.BuildLeafLinkedTree(innerDepth)
		offset := g.NumVertices()
		for i := 0; i < inner.NumVertices(); i++ {
			g.AddVertex()
		}
		relabel := map[string]string{"L": "l", "R": "r", "N": "n"}
		for _, f := range inner.Fields() {
			for v := heap.Vertex(0); int(v) < inner.NumVertices(); v++ {
				if w, ok := inner.Edge(v, f); ok {
					g.SetEdge(v+heap.Vertex(offset), relabel[f], w+heap.Vertex(offset))
				}
			}
		}
		g.SetEdge(heap.Vertex(leaf), "aux", innerRoot+heap.Vertex(offset))
	}
	return g, root
}

func main() {
	axioms := axiom.TwoDRangeTree()
	fmt.Print(axioms)

	// Model-check the axioms on concrete instances.
	for _, shape := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		g, _ := buildRangeTree(shape[0], shape[1])
		err := g.CheckSet(axioms)
		fmt.Printf("\ndepth %d/%d instance (%d vertices): axioms hold: %v",
			shape[0], shape[1], g.NumVertices(), err == nil)
		if err != nil {
			fmt.Printf(" (%v)", err)
		}
	}
	fmt.Println()

	// Dependence queries over the two-level structure.
	tester := core.NewTester(axioms, prover.Options{})
	run := func(name, p1, p2 string) {
		q := core.Query{
			Axioms: axioms,
			S:      core.Access{Handle: "_hroot", Path: pathexpr.MustParse(p1), Field: "v", IsWrite: true},
			T:      core.Access{Handle: "_hroot", Path: pathexpr.MustParse(p2), Field: "v", IsWrite: true},
		}
		fmt.Printf("  %-44s %v\n", name+":", tester.DepTest(q).Result)
	}
	fmt.Println("\nqueries from the primary root:")
	run("inner trees of different primary leaves", "L.aux.(l|r|n)*", "R.aux.(l|r|n)*")
	run("two leaves of one inner tree", "L.aux.l.n", "L.aux.l.n.n")
	run("inner leaf chain walk (loop-carried)", "L.aux.l", "L.aux.l.n+")
	run("same inner vertex (cannot disprove)", "L.N.aux.l", "L.N.aux.l")

	// Empirical cross-check of the first proof on a concrete instance.
	g, root := buildRangeTree(2, 2)
	disjoint := g.Disjoint(root,
		pathexpr.MustParse("L.aux.(l|r|n)*"),
		root,
		pathexpr.MustParse("R.aux.(l|r|n)*"))
	fmt.Printf("\nconcrete check — L and R inner regions disjoint: %v\n", disjoint)

	// A randomized instance for good measure.
	rng := rand.New(rand.NewSource(1))
	_ = rng
}
