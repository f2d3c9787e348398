package baseline

import (
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// LarusHilfinger is the path-expression intersection dependence test of
// [LH88] (§2.4).  Memory locations are named by path expressions from a
// handle; two accesses conflict when the languages of their (possibly
// widened) path expressions intersect.
type LarusHilfinger struct {
	axioms *axiom.Set
	prov   *prover.Prover
	dfas   *automata.SharedCache
	groups [][]string
	// certified memoizes tree certification per field-set key.
	certified map[string]bool
}

// NewLarusHilfinger builds the baseline over the same structural knowledge
// APT receives.
func NewLarusHilfinger(axioms *axiom.Set) *LarusHilfinger {
	dfas := automata.NewSharedCache(0, 1, 0)
	return &LarusHilfinger{
		axioms:    axioms,
		prov:      prover.New(axioms, prover.Options{DFACache: dfas}),
		dfas:      dfas,
		groups:    FieldGroups(axioms),
		certified: make(map[string]bool),
	}
}

// DepTest answers a dependence query with the intersection test.  Only the
// common-handle case is supported precisely; differing handles are
// conservatively Maybe (alias-graph construction for arbitrary handle
// relations is beyond [LH88]'s published test).
func (l *LarusHilfinger) DepTest(q core.Query) core.Result {
	if !q.S.IsWrite && !q.T.IsWrite {
		return core.No
	}
	if q.S.Type != "" && q.T.Type != "" && q.S.Type != q.T.Type {
		return core.No
	}
	overlap := q.FieldsOverlap
	if overlap == nil {
		overlap = func(f, g string) bool { return f == g }
	}
	if !overlap(q.S.Field, q.T.Field) {
		return core.No
	}
	if q.S.Handle != q.T.Handle {
		return core.Maybe
	}

	// Exact naming is only valid when every field traversed belongs to a
	// certified tree substructure; otherwise map to the conservative widened
	// expressions, as the paper describes for Figure 3.  On a structure that
	// is not even certified acyclic, a vertex's alias-graph label must admit
	// returning to it around a cycle, so every label degenerates to the
	// all-fields closure — the intersection test then decides nothing.
	x, y := pathexpr.Simplify(q.S.Path), pathexpr.Simplify(q.T.Path)
	fields := pathexpr.Fields(x, y)
	if !l.treeCertified(fields) {
		if !l.acyclicCertified(fields) {
			closure := l.allFieldsClosure(fields)
			x, y = closure, closure
		} else {
			x = l.widen(x)
			y = l.widen(y)
		}
	}

	alpha := alphabetFor(l.axioms, x, y)
	dx, err := l.dfas.DFA(pathexpr.Intern(x), alpha)
	if err != nil {
		return core.Maybe
	}
	dy, err := l.dfas.DFA(pathexpr.Intern(y), alpha)
	if err != nil {
		return core.Maybe
	}
	inter := dx.Intersect(dy)
	if inter.IsEmpty() {
		return core.No
	}
	// Identical singleton expressions denote one vertex: definite conflict.
	if wx, okx := pathexpr.Word(q.S.Path); okx {
		if wy, oky := pathexpr.Word(q.T.Path); oky && wordEq(wx, wy) {
			return core.Yes
		}
	}
	return core.Maybe
}

// acyclicCertified reports whether no traversal over the given fields can
// return to its origin, by querying the prover for ∀p, p.ε <> p.(F)+.
func (l *LarusHilfinger) acyclicCertified(fields []string) bool {
	if len(fields) == 0 {
		return true
	}
	alts := make([]pathexpr.Expr, len(fields))
	for i, f := range fields {
		alts[i] = pathexpr.F(f)
	}
	proof := l.prov.Prove(prover.SameSrc, pathexpr.Eps, pathexpr.Rep1(pathexpr.Or(alts...)))
	return proof.Result == prover.Proved
}

// allFieldsClosure returns (f1|f2|...)* over all structure and path fields.
func (l *LarusHilfinger) allFieldsClosure(extra []string) pathexpr.Expr {
	fields := append(append([]string{}, l.axioms.Fields()...), extra...)
	seen := map[string]bool{}
	var alts []pathexpr.Expr
	for _, f := range fields {
		if !seen[f] {
			seen[f] = true
			alts = append(alts, pathexpr.F(f))
		}
	}
	return pathexpr.Rep(pathexpr.Or(alts...))
}

func (l *LarusHilfinger) treeCertified(fields []string) bool {
	key := ""
	for _, f := range fields {
		key += f + "\x00"
	}
	if v, ok := l.certified[key]; ok {
		return v
	}
	v := TreeCertified(l.prov, fields)
	l.certified[key] = v
	return v
}

// widen maps an access path to the conservative path expression an [LH88]
// alias graph must use on a non-tree structure: each maximal run of fields
// from one traversal dimension becomes (group)+ (in the spirit of the
// paper's example, which widens both root.LLNN and root.LRN to (L|R)+N+).
// Keeping two dimensions as *separate* runs asserts that paths with
// different dimension sequences reach different vertices, which is only
// sound when the axioms certify that edges of the two dimensions never
// point to the same vertex; dimensions lacking that certificate are merged
// into one run (e.g. a skip list's express level can land exactly where two
// base hops do, so its levels must widen together).  Non-word paths widen
// to the concatenation of (group)+ for each dimension they mention, in
// first-use order.
func (l *LarusHilfinger) widen(e pathexpr.Expr) pathexpr.Expr {
	groups := l.effectiveGroups(pathexpr.Fields(e))
	groupExpr := func(gi int) pathexpr.Expr {
		alts := make([]pathexpr.Expr, len(groups[gi]))
		for i, f := range groups[gi] {
			alts[i] = pathexpr.F(f)
		}
		return pathexpr.Rep1(pathexpr.Or(alts...))
	}

	var runs []int
	record := func(f string) {
		gi := groupOf(groups, f)
		if len(runs) == 0 || runs[len(runs)-1] != gi {
			runs = append(runs, gi)
		}
	}

	if w, ok := pathexpr.Word(e); ok {
		for _, f := range w {
			record(f)
		}
	} else {
		// General expression: preserve only the order of first mention.
		pathexpr.Walk(e, func(x pathexpr.Expr) {
			if f, ok := x.(pathexpr.Field); ok {
				record(f.Name)
			}
		})
	}
	parts := make([]pathexpr.Expr, len(runs))
	for i, gi := range runs {
		parts[i] = groupExpr(gi)
	}
	if len(parts) == 0 {
		return pathexpr.Eps
	}
	return pathexpr.Cat(parts...)
}

// effectiveGroups refines the declared dimension groups for the given path
// fields: two dimensions stay separate only when every cross pair of their
// fields is certified non-confluent (∀p, p.f <> p.g and ∀p<>q, p.f <> q.g),
// and any path field unknown to the axioms becomes its own dimension before
// the same merging applies.
func (l *LarusHilfinger) effectiveGroups(pathFields []string) [][]string {
	groups := make([][]string, len(l.groups))
	copy(groups, l.groups)
	for _, f := range pathFields {
		if groupOf(groups, f) < 0 {
			groups = append(groups, []string{f})
		}
	}
	// Union-find over group indices.
	parent := make([]int, len(groups))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			if find(i) == find(j) {
				continue
			}
			if !l.dimensionsSeparated(groups[i], groups[j]) {
				parent[find(i)] = find(j)
			}
		}
	}
	merged := map[int][]string{}
	for i, g := range groups {
		r := find(i)
		merged[r] = append(merged[r], g...)
	}
	var out [][]string
	for i := range groups {
		if find(i) == i {
			out = append(out, merged[i])
		}
	}
	return out
}

// dimensionsSeparated reports whether every cross pair of fields from the
// two dimensions is certified never to reach a common vertex in one step.
func (l *LarusHilfinger) dimensionsSeparated(g1, g2 []string) bool {
	for _, f := range g1 {
		for _, g := range g2 {
			key := "sep\x00" + f + "\x00" + g
			v, ok := l.certified[key]
			if !ok {
				same := l.prov.Prove(prover.SameSrc, pathexpr.F(f), pathexpr.F(g)).Result == prover.Proved
				diff := same && l.prov.Prove(prover.DiffSrc, pathexpr.F(f), pathexpr.F(g)).Result == prover.Proved
				v = same && diff
				l.certified[key] = v
			}
			if !v {
				return false
			}
		}
	}
	return true
}

func wordEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
