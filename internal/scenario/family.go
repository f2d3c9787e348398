// Package scenario is the differential-fuzzing farm behind cmd/aptfuzz: a
// registry of dynamic-structure families (axiom library + random instance
// generator), a random generator of small mini-C programs over those
// structures, and a harness that checks every No verdict obtained through
// engine.Batch (or a live aptserved endpoint) against two ground-
// truth oracles — concrete execution on the generated heap, and exhaustive
// execution over every conforming small heap of the family
// (Family.ConformingHeaps), both swept through heap/oracle.Sweep.
//
// The headline contract under test is the soundness direction of the paper's
// dependence test: the prover must never answer "No dependence" for an
// access pair that some conforming heap makes collide.  Divergences are
// minimized and written as replayable JSON artifacts.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/axiom"
	"repro/internal/heap"
)

// Family is one structure family the farm can draw scenarios from: the
// struct declaration (fields + axiom library) and a generator of random
// conforming instances.
type Family struct {
	// Name is the registry key (e.g. "skiplist").
	Name string
	// StructName is the rendered struct tag.
	StructName string
	// PointerFields are the recursive pointer fields, in declaration order.
	PointerFields []string
	// DataField is the scalar payload field every family carries.
	DataField string
	// Axioms is the family's aliasing-axiom library.
	Axioms *axiom.Set
	// WalkFields are the pointer fields safe to drive a NULL-terminated
	// loop over: each is covered by the library's acyclicity axiom, so a
	// walk over any conforming heap terminates.
	WalkFields []string
	// EnumVertices bounds the exhaustive small-heap oracle for this family
	// (the enumeration visits (n+1)^(n·fields) shapes per size n).
	EnumVertices int
	// MaxHeap bounds the generated concrete instance size.
	MaxHeap int
	// Generate builds a random conforming instance with at least one
	// vertex and returns it with its root (the vertex handed to the
	// generated program's pointer parameter).
	Generate func(rng *rand.Rand, n int) (*heap.Graph, heap.Vertex)

	enumOnce sync.Once
	enumHeap []*heap.Graph // conforming shapes, sizes 1..EnumVertices
}

// Families returns the registered families sorted by name.
func Families() []*Family {
	out := make([]*Family, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyByName returns the named family, or nil.
func FamilyByName(name string) *Family { return registry[name] }

var registry = map[string]*Family{}

func register(f *Family) *Family {
	if _, dup := registry[f.Name]; dup {
		panic("scenario: duplicate family " + f.Name)
	}
	registry[f.Name] = f
	return f
}

// StructSource renders the family's struct declaration — pointer fields,
// the data field, and the axiom library — in the mini-C concrete syntax the
// lang parser accepts (ASCII "forall" and "eps").
func (f *Family) StructSource() string {
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s {\n", f.StructName)
	for _, pf := range f.PointerFields {
		fmt.Fprintf(&b, "\tstruct %s *%s;\n", f.StructName, pf)
	}
	fmt.Fprintf(&b, "\tint %s;\n", f.DataField)
	b.WriteString("\taxioms {\n")
	for _, a := range f.Axioms.Axioms {
		fmt.Fprintf(&b, "\t\t%s\n", sourceAxiom(a))
	}
	b.WriteString("\t}\n};\n")
	return b.String()
}

// sourceAxiom renders one axiom as a parseable axioms-block line (the
// shared ASCII rendering, plus the block's ';' separator).
func sourceAxiom(a axiom.Axiom) string {
	return a.SourceLine() + ";"
}

// ConformingHeaps returns every conforming heap shape of the family on 1 to
// EnumVertices vertices, enumerated once and cached (the library is fixed,
// so the shape set never changes).  Callers must not mutate the returned
// graphs — clone before running a program against one.
func (f *Family) ConformingHeaps() []*heap.Graph {
	f.enumOnce.Do(func() {
		c := heap.NewChecker(f.Axioms, f.PointerFields...)
		for n := 1; n <= f.EnumVertices; n++ {
			heap.EnumerateConforming(n, f.PointerFields, c, func(g *heap.Graph) bool {
				f.enumHeap = append(f.enumHeap, g)
				return true
			})
		}
	})
	return f.enumHeap
}

// The five farm families.  Enumeration bounds are picked per field count so
// the exhaustive oracle stays instant: one field sweeps 4 vertices (5^4
// shapes), two fields 3 vertices (4^6), three fields 2 vertices (3^6).

// SkipListFamily: two express levels over one vertex order.
var SkipListFamily = register(&Family{
	Name:          "skiplist",
	StructName:    "SkipNode",
	PointerFields: []string{"n0", "n1"},
	DataField:     "v",
	Axioms:        axiom.SkipList("n0", "n1"),
	WalkFields:    []string{"n0", "n1"},
	EnumVertices:  3,
	MaxHeap:       8,
	Generate: func(rng *rand.Rand, n int) (*heap.Graph, heap.Vertex) {
		g := heap.New(n)
		for i := 0; i+1 < n; i++ {
			g.SetEdge(heap.Vertex(i), "n0", heap.Vertex(i+1))
		}
		// Level 1 hops over a random increasing subsequence: always
		// forward in base order, so injectivity and acyclicity hold.
		prev := 0
		for i := 1; i < n; i++ {
			if rng.Intn(2) == 0 {
				g.SetEdge(heap.Vertex(prev), "n1", heap.Vertex(i))
				prev = i
			}
		}
		return g, 0
	},
})

// BPlusTreeFamily: a fan-out-2 leaf-linked tree (B+-tree skeleton).
var BPlusTreeFamily = register(&Family{
	Name:          "bplustree",
	StructName:    "BPlusNode",
	PointerFields: []string{"c0", "c1", "next"},
	DataField:     "v",
	Axioms:        axiom.BPlusTree("next", "c0", "c1"),
	WalkFields:    []string{"c0", "c1", "next"},
	EnumVertices:  2,
	MaxHeap:       7,
	Generate: func(rng *rand.Rand, n int) (*heap.Graph, heap.Vertex) {
		g := heap.New(n)
		// Random binary tree over vertices 0..n-1 with 0 as root: each
		// vertex i > 0 becomes a free child slot of an earlier vertex.
		type slot struct {
			parent heap.Vertex
			field  string
		}
		slots := []slot{{0, "c0"}, {0, "c1"}}
		children := make(map[heap.Vertex][]heap.Vertex)
		for i := 1; i < n; i++ {
			k := rng.Intn(len(slots))
			s := slots[k]
			slots = append(slots[:k], slots[k+1:]...)
			g.SetEdge(s.parent, s.field, heap.Vertex(i))
			children[s.parent] = append(children[s.parent], heap.Vertex(i))
			slots = append(slots, slot{heap.Vertex(i), "c0"}, slot{heap.Vertex(i), "c1"})
		}
		// Thread the leaves left to right.
		var leaves []heap.Vertex
		var inorder func(v heap.Vertex)
		inorder = func(v heap.Vertex) {
			c0, ok0 := g.Edge(v, "c0")
			c1, ok1 := g.Edge(v, "c1")
			if !ok0 && !ok1 {
				leaves = append(leaves, v)
				return
			}
			if ok0 {
				inorder(c0)
			}
			if ok1 {
				inorder(c1)
			}
		}
		inorder(0)
		for i := 0; i+1 < len(leaves); i++ {
			g.SetEdge(leaves[i], "next", leaves[i+1])
		}
		return g, 0
	},
})

// HashTableFamily: a table vertex fanning out to two collision chains.
var HashTableFamily = register(&Family{
	Name:          "hashtable",
	StructName:    "HashNode",
	PointerFields: []string{"b0", "b1", "next"},
	DataField:     "v",
	Axioms:        axiom.ChainedHashTable("next", "b0", "b1"),
	WalkFields:    []string{"next"},
	EnumVertices:  2,
	MaxHeap:       7,
	Generate: func(rng *rand.Rand, n int) (*heap.Graph, heap.Vertex) {
		g := heap.New(n)
		// Vertex 0 is the table; the rest hash into one of two chains.
		var chains [2][]heap.Vertex
		for i := 1; i < n; i++ {
			k := rng.Intn(2)
			chains[k] = append(chains[k], heap.Vertex(i))
		}
		for k, chain := range chains {
			if len(chain) == 0 {
				continue
			}
			g.SetEdge(0, fmt.Sprintf("b%d", k), chain[0])
			for i := 0; i+1 < len(chain); i++ {
				g.SetEdge(chain[i], "next", chain[i+1])
			}
		}
		return g, 0
	},
})

// UnionFindFamily: a parent forest, the weakest library (acyclicity only —
// parents are deliberately shareable).
var UnionFindFamily = register(&Family{
	Name:          "unionfind",
	StructName:    "UFNode",
	PointerFields: []string{"parent"},
	DataField:     "v",
	Axioms:        axiom.UnionFindForest("parent"),
	WalkFields:    []string{"parent"},
	EnumVertices:  4,
	MaxHeap:       8,
	Generate: func(rng *rand.Rand, n int) (*heap.Graph, heap.Vertex) {
		g := heap.New(n)
		// Each vertex i > 0 picks an earlier parent or stays a root; many
		// children may share a parent.
		for i := 1; i < n; i++ {
			if p := rng.Intn(i + 1); p < i {
				g.SetEdge(heap.Vertex(i), "parent", heap.Vertex(p))
			}
		}
		// Hand the program a leaf-most vertex so parent walks are long.
		return g, heap.Vertex(n - 1)
	},
})

// DequeFamily: a doubly linked chain mutated at both ends.
var DequeFamily = register(&Family{
	Name:          "deque",
	StructName:    "DequeNode",
	PointerFields: []string{"next", "prev"},
	DataField:     "v",
	Axioms:        axiom.Deque("next", "prev"),
	WalkFields:    []string{"next", "prev"},
	EnumVertices:  3,
	MaxHeap:       8,
	Generate: func(rng *rand.Rand, n int) (*heap.Graph, heap.Vertex) {
		g := heap.New(n)
		for i := 0; i+1 < n; i++ {
			g.SetEdge(heap.Vertex(i), "next", heap.Vertex(i+1))
			g.SetEdge(heap.Vertex(i+1), "prev", heap.Vertex(i))
		}
		root := heap.Vertex(0)
		if n > 1 && rng.Intn(2) == 0 {
			root = heap.Vertex(n - 1) // enter from the tail half the time
		}
		return g, root
	},
})
