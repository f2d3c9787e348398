package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/axiom"
	"repro/internal/wire"
)

// family is one pointer-structure shape the generator writes programs and
// raw queries over: the struct's recursive fields and its axiom library.
type family struct {
	name   string
	fields []string
	axioms *axiom.Set
}

// families are the structures of the paper's examples — the leaf-linked
// tree of §3.3, the sparse-matrix element chains of §5 (Theorem T), the
// list of Figure 1 — plus a skip list and a B+-tree from the library, so
// programs mix one-, two- and three-field alphabets.
func families() []family {
	return []family{
		{"LLTree", []string{"L", "R", "N"}, axiom.LeafLinkedBinaryTree()},
		{"Elem", []string{"ncolE", "nrowE"}, axiom.SparseMatrixCore()},
		{"Node", []string{"link"}, axiom.SinglyLinkedList("link")},
		{"Skip", []string{"n0", "n1"}, axiom.SkipList("n0", "n1")},
		{"BNode", []string{"c0", "c1", "next"}, axiom.BPlusTree("next", "c0", "c1")},
	}
}

// structSource renders the family as a mini-C struct with its axiom block.
func (f family) structSource() string {
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s {\n", f.name)
	for _, fl := range f.fields {
		fmt.Fprintf(&b, "\tstruct %s *%s;\n", f.name, fl)
	}
	b.WriteString("\tint d;\n\taxioms {\n")
	for _, a := range f.axioms.Axioms {
		fmt.Fprintf(&b, "\t\t%s;\n", a.SourceLine())
	}
	b.WriteString("\t}\n};\n")
	return b.String()
}

// straightAccesses is the number of labeled accesses on straight-line code
// in each generated program; every pair of them becomes a "between" query.
const straightAccesses = 5

// walkLengths are the pointer-walk lengths of those accesses.  Each program
// uses the same multiset in a seeded order, so programs differ in which
// fields they walk rather than in how much work they carry.
var walkLengths = [straightAccesses]int{1, 2, 2, 3, 3}

// genProgram writes one mini-C kernel over the family: five labeled writes
// at the ends of seeded pointer walks from the root, a loop advancing along
// one field, and (for multi-field structures) a nested row/column loop in
// the style of §5's scaleRows.  Its query lines ask every straight-line pair
// and every loop-carried self dependence.
func genProgram(rng *rand.Rand, f family) wire.BatchRequest {
	var b strings.Builder
	b.WriteString(f.structSource())
	fmt.Fprintf(&b, "\nvoid kernel(struct %s *root) {\n", f.name)
	for i := 0; i < straightAccesses; i++ {
		fmt.Fprintf(&b, "\tstruct %s *p%d;\n", f.name, i)
	}
	fmt.Fprintf(&b, "\tstruct %s *q;\n\tstruct %s *r;\n", f.name, f.name)
	pick := func() string { return f.fields[rng.Intn(len(f.fields))] }
	var lines []string
	for i, n := range rng.Perm(straightAccesses) {
		src := "root"
		for step := 0; step < walkLengths[n]; step++ {
			fmt.Fprintf(&b, "\tp%d = %s->%s;\n", i, src, pick())
			src = fmt.Sprintf("p%d", i)
		}
		if n%2 == 0 {
			fmt.Fprintf(&b, "A%d:\tp%d->d = %d;\n", i, i, i)
		} else {
			fmt.Fprintf(&b, "A%d:\tp%d->d = p%d->d + %d;\n", i, i, i, i)
		}
		for j := 0; j < i; j++ {
			lines = append(lines, fmt.Sprintf("between A%d A%d", j, i))
		}
	}
	step := pick()
	fmt.Fprintf(&b, "\tq = root->%s;\n\twhile (q != NULL) {\nU0:\t\tq->d = 0;\n\t\tq = q->%s;\n\t}\n", pick(), step)
	lines = append(lines, "loop U0")
	if len(f.fields) > 1 {
		perm := rng.Perm(len(f.fields))
		outer, inner := f.fields[perm[0]], f.fields[perm[1]]
		fmt.Fprintf(&b, "\tr = root;\n\twhile (r != NULL) {\n\t\tq = r->%s;\n\t\twhile (q != NULL) {\n"+
			"U1:\t\t\tq->d = q->d + 1;\n\t\t\tq = q->%s;\n\t\t}\n\t\tr = r->%s;\n\t}\n", inner, inner, outer)
		lines = append(lines, "loop U1")
	}
	b.WriteString("}\n")
	return wire.BatchRequest{Program: b.String(), Fn: "kernel", Queries: lines}
}

// paperKernels are the paper's own examples with the verdicts the paper
// states for them, so every run also checks the reference it compares
// against: §3.3's S/T pair and Figure 1's update loop are independent, and
// both loop levels of §5's scaleRows are parallel (Theorem T).
var paperKernels = []struct {
	req  wire.BatchRequest
	want []string
}{
	{wire.BatchRequest{Fn: "subr", Queries: []string{"between S T"}, Program: `
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
`}, []string{"No"}},
	{wire.BatchRequest{Fn: "update", Queries: []string{"loop U"}, Program: `
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
`}, []string{"No"}},
	{wire.BatchRequest{Fn: "scaleRows", Queries: []string{"loop S"}, Program: `
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
	while (r != NULL) {
		e = r->ncolE;
		while (e != NULL) {
S:			e->val = e->val * 2.0;
			e = e->ncolE;
		}
		r = r->nrowE;
	}
}
`}, []string{"No", "No"}},
}

// windows returns the family's axiom set and its §3.4 validity windows —
// the set with one axiom dropped, as after a structural modification —
// named so every window is a distinct axiom set to the server.
func (f family) windows() []*axiom.Set {
	out := []*axiom.Set{f.axioms}
	for drop := range f.axioms.Axioms {
		w := axiom.NewSet(fmt.Sprintf("%s-w%d", f.name, drop+1))
		for i, a := range f.axioms.Axioms {
			if i != drop {
				w.Add(a)
			}
		}
		out = append(out, w)
	}
	return out
}

// rawQueriesPerRequest is the batch size of a raw-mode request.
const rawQueriesPerRequest = 12

// genRaw writes one raw-mode request against the axiom set: access pairs
// over the set's fields with a fixed mix of shapes — path lengths 0 to 3,
// a closure on every fourth path, four pairs under each handle relation,
// half of them write/write — and seeded fields and order, so requests
// differ in what they ask rather than in how much they ask.
func genRaw(rng *rand.Rand, set *axiom.Set) wire.BatchRequest {
	fields := set.Fields()
	const paths = 2 * rawQueriesPerRequest
	lengths := rng.Perm(paths)
	path := func(k int) string {
		n := lengths[k] % 4
		steps := make([]string, n)
		for i := range steps {
			steps[i] = fields[rng.Intn(len(fields))]
		}
		if n > 0 && k%4 == 0 {
			steps[n-1] += "+"
		}
		return strings.Join(steps, ".")
	}
	relations := []string{"same", "distinct", "unknown"}
	raws := make([]wire.RawQuery, rawQueriesPerRequest)
	for i, k := range rng.Perm(rawQueriesPerRequest) {
		rel := relations[k%len(relations)]
		th := "k"
		if rel == "same" {
			th = "h"
		}
		raws[i] = wire.RawQuery{
			SHandle: "h", SPath: path(2 * i), SField: "d", SWrite: true,
			THandle: th, TPath: path(2*i + 1), TField: "d", TWrite: k%2 == 0,
			Relation: rel,
		}
	}
	return wire.BatchRequest{AxiomSet: set.Source(), AxiomSetName: set.StructName, Raw: raws}
}
