package baseline

import (
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// HendrenNicolau models the path-matrix approach of [HN90] as the paper
// characterizes it (§2.4): "potentially less expensive than that of Larus,
// yet also precise for trees.  However, it fails to present a general
// dependence test, and does not handle cyclic data structures."
//
// Accordingly: on a certified tree substructure the test reasons exactly
// with the simple paths a path matrix stores and is precise; on anything
// else — DAG confluence, cycles, or path expressions beyond simple
// concatenations with a bounded tail — it has no answer and reports Maybe.
type HendrenNicolau struct {
	axioms    *axiom.Set
	prov      *prover.Prover
	dfas      *automata.SharedCache
	certified map[string]bool
}

// NewHendrenNicolau builds the baseline over the same structural knowledge
// APT receives.
func NewHendrenNicolau(axioms *axiom.Set) *HendrenNicolau {
	dfas := automata.NewSharedCache(0, 1, 0)
	return &HendrenNicolau{
		axioms:    axioms,
		prov:      prover.New(axioms, prover.Options{DFACache: dfas}),
		dfas:      dfas,
		certified: make(map[string]bool),
	}
}

// DepTest answers a dependence query with path-matrix reasoning.
func (h *HendrenNicolau) DepTest(q core.Query) core.Result {
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

	x, y := pathexpr.Simplify(q.S.Path), pathexpr.Simplify(q.T.Path)
	fields := pathexpr.Fields(x, y)
	key := ""
	for _, f := range fields {
		key += f + "\x00"
	}
	cert, ok := h.certified[key]
	if !ok {
		cert = TreeCertified(h.prov, fields)
		h.certified[key] = cert
	}
	if !cert {
		return core.Maybe // not a tree: no path matrix entry applies
	}
	if !h.pathMatrixExpressible(x) || !h.pathMatrixExpressible(y) {
		return core.Maybe // beyond the simple paths a path matrix stores
	}

	alpha := alphabetFor(h.axioms, x, y)
	dx, err := h.dfas.DFA(pathexpr.Intern(x), alpha)
	if err != nil {
		return core.Maybe
	}
	dy, err := h.dfas.DFA(pathexpr.Intern(y), alpha)
	if err != nil {
		return core.Maybe
	}
	if dx.Intersect(dy).IsEmpty() {
		return core.No
	}
	if wx, okx := pathexpr.Word(x); okx {
		if wy, oky := pathexpr.Word(y); oky && wordEq(wx, wy) {
			return core.Yes
		}
	}
	return core.Maybe
}

// pathMatrixExpressible reports whether the access path has the simple form
// a path matrix can relate two pointers by: a concrete prefix optionally
// followed by one trailing closure over a single field (the "p is k or more
// links ahead of q" relations [HN90] records for lists and trees).
func (h *HendrenNicolau) pathMatrixExpressible(e pathexpr.Expr) bool {
	comps := pathexpr.Components(e)
	for i, c := range comps {
		switch v := c.(type) {
		case pathexpr.Field:
			continue
		case pathexpr.Star:
			_, ok := v.Inner.(pathexpr.Field)
			if !ok || i != len(comps)-1 {
				return false
			}
		case pathexpr.Plus:
			_, ok := v.Inner.(pathexpr.Field)
			if !ok || i != len(comps)-1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
