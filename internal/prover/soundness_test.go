package prover

import (
	"math/rand"
	"testing"

	"repro/internal/axiom"
	"repro/internal/heap"
	"repro/internal/pathexpr"
)

// These tests validate the prover empirically: whenever it *proves*
// disjointness of two access paths, the corresponding vertex sets must be
// disjoint on every concrete heap that satisfies the axiom set.  Random
// structures and random paths probe the claim.  A single violation here
// would mean the prover can break a true dependence — the one failure mode
// a dependence test must never have.

// randPath builds a random path expression over the given fields.
func randPath(rng *rand.Rand, fields []string, depth int) pathexpr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return pathexpr.F(fields[rng.Intn(len(fields))])
	}
	switch rng.Intn(5) {
	case 0:
		return pathexpr.Cat(randPath(rng, fields, depth-1), randPath(rng, fields, depth-1))
	case 1:
		return pathexpr.Or(randPath(rng, fields, depth-1), randPath(rng, fields, depth-1))
	case 2:
		return pathexpr.Rep(randPath(rng, fields, depth-1))
	case 3:
		return pathexpr.Rep1(randPath(rng, fields, depth-1))
	default:
		return pathexpr.F(fields[rng.Intn(len(fields))])
	}
}

// checkSoundness proves random path pairs and validates every Proved answer
// against the given conforming heaps.
func checkSoundness(t *testing.T, p *Prover, graphs []*heap.Graph, roots []heap.Vertex, fields []string, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	proved, provedDiff := 0, 0
	for i := 0; i < trials; i++ {
		x := randPath(rng, fields, 3)
		y := randPath(rng, fields, 3)
		proof := p.Prove(SameSrc, x, y)
		if proof.Result == Proved {
			proved++
			for gi, g := range graphs {
				// The theorem is ∀ vertices, not just the root.
				for v := 0; v < g.NumVertices(); v++ {
					if !g.Disjoint(heap.Vertex(v), x, heap.Vertex(v), y) {
						t.Fatalf("UNSOUND at vertex %d of heap %d: h.%v <> h.%v\n%s",
							v, gi, x, y, proof.Render())
					}
				}
			}
		}
		// The distinct-anchor form: ∀h<>k, h.x <> k.y.
		diff := p.Prove(DiffSrc, x, y)
		if diff.Result == Proved {
			provedDiff++
			for gi, g := range graphs {
				for v := 0; v < g.NumVertices(); v++ {
					for w := 0; w < g.NumVertices(); w++ {
						if v == w {
							continue
						}
						if !g.Disjoint(heap.Vertex(v), x, heap.Vertex(w), y) {
							t.Fatalf("UNSOUND (diff-src) at vertices %d<>%d of heap %d: h.%v <> k.%v\n%s",
								v, w, gi, x, y, diff.Render())
						}
					}
				}
			}
		}
	}
	if proved == 0 {
		t.Errorf("soundness run proved nothing in %d trials; test has no power", trials)
	}
	t.Logf("validated %d same-src and %d diff-src proofs from %d trials against %d heaps",
		proved, provedDiff, trials, len(graphs))
}

func TestSoundnessLeafLinkedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var graphs []*heap.Graph
	var roots []heap.Vertex
	for depth := 0; depth <= 3; depth++ {
		g, r := heap.BuildLeafLinkedTree(depth)
		graphs, roots = append(graphs, g), append(roots, r)
	}
	for trial := 0; trial < 6; trial++ {
		g, r := heap.RandomLeafLinkedTree(rng, 1+rng.Intn(14))
		graphs, roots = append(graphs, g), append(roots, r)
	}
	for _, g := range graphs {
		if err := g.CheckSet(axiom.LeafLinkedBinaryTree()); err != nil {
			t.Fatalf("generator produced a non-conforming heap: %v", err)
		}
	}
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	checkSoundness(t, p, graphs, roots, []string{"L", "R", "N"}, 250, 101)
}

func TestSoundnessSparseMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var graphs []*heap.Graph
	var roots []heap.Vertex
	for trial := 0; trial < 6; trial++ {
		r, c := 1+rng.Intn(3), 1+rng.Intn(3)
		pos := heap.RandomSparsePattern(rng, r, c, rng.Intn(r*c+1))
		g, lay := heap.BuildSparseMatrix(r, c, pos)
		graphs, roots = append(graphs, g), append(roots, lay.Root)
	}
	for _, g := range graphs {
		if err := g.CheckSet(axiom.SparseMatrix()); err != nil {
			t.Fatalf("generator produced a non-conforming heap: %v", err)
		}
	}
	p := New(axiom.SparseMatrix(), Options{MaxSteps: 20000})
	fields := []string{"rows", "cols", "nrowH", "ncolH", "relem", "celem", "nrowE", "ncolE"}
	checkSoundness(t, p, graphs, roots, fields, 120, 103)
}

func TestSoundnessBinaryTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var graphs []*heap.Graph
	var roots []heap.Vertex
	for trial := 0; trial < 8; trial++ {
		g, r := heap.RandomBinaryTree(rng, 1+rng.Intn(12), "l", "r")
		graphs, roots = append(graphs, g), append(roots, r)
	}
	p := New(axiom.BinaryTree("l", "r"), Options{})
	checkSoundness(t, p, graphs, roots, []string{"l", "r"}, 250, 107)
}

func TestSoundnessRings(t *testing.T) {
	g3, r3 := heap.BuildRing(3, "next")
	p := New(axiom.RingOf("next", 3), Options{})
	checkSoundness(t, p, []*heap.Graph{g3}, []heap.Vertex{r3}, []string{"next"}, 250, 109)
}

func TestSoundnessLists(t *testing.T) {
	var graphs []*heap.Graph
	var roots []heap.Vertex
	for _, n := range []int{1, 2, 3, 5, 9} {
		g, r := heap.BuildList(n, "next")
		graphs, roots = append(graphs, g), append(roots, r)
	}
	p := New(axiom.SinglyLinkedList("next"), Options{})
	checkSoundness(t, p, graphs, roots, []string{"next"}, 200, 113)
}

// TestDefinitelyAliasedIsSound: whenever DefinitelyAliased says two word
// paths coincide, walking them on a conforming heap from any vertex where
// both exist must land on the same vertex.
func TestDefinitelyAliasedIsSound(t *testing.T) {
	g, _ := heap.BuildRing(3, "next")
	p := New(axiom.RingOf("next", 3), Options{})
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		l1 := rng.Intn(7)
		l2 := rng.Intn(7)
		w1 := make([]string, l1)
		w2 := make([]string, l2)
		for k := range w1 {
			w1[k] = "next"
		}
		for k := range w2 {
			w2[k] = "next"
		}
		x, y := pathexpr.FromWord(w1), pathexpr.FromWord(w2)
		if !p.DefinitelyAliased(x, y) {
			continue
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, ok1 := g.WalkWord(heap.Vertex(v), w1)
			b, ok2 := g.WalkWord(heap.Vertex(v), w2)
			if ok1 && ok2 && a != b {
				t.Fatalf("UNSOUND definite alias: next^%d vs next^%d land on %d vs %d", l1, l2, a, b)
			}
		}
	}
}
