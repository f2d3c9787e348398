package engine

import (
	"fmt"
	"math/rand"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
)

// The benchmark/differential workload mimics what the engine's clients
// produce: many closely related queries over a leaf-linked binary tree,
// re-asked under several §3.4 validity windows, with each goal also
// appearing with its sides swapped (a loop pass asks both ⟨a,b⟩ and
// ⟨b,a⟩).  The windows below drop one non-structural axiom each but all
// preserve the field set {L,R,N}, so their DFA alphabets — and hence the
// shared compilation cache entries — coincide.

// workloadSpec is one base access pair of the generated workload.
type workloadSpec struct {
	x, y     string // access paths (pathexpr syntax)
	fs, ft   string // accessed data fields
	ws, wt   bool   // write flags
	relation core.HandleRelation
	distinct bool // anchor T at a second handle
}

var workloadSpecs = []workloadSpec{
	// Provably disjoint same-handle pairs (A1/A2/A4 territory).
	{x: "L", y: "R", fs: "val", ft: "val", ws: true, wt: false},
	{x: "L.L", y: "L.R", fs: "val", ft: "val", ws: true, wt: true},
	{x: "R.L", y: "R.R", fs: "val", ft: "val", ws: false, wt: true},
	{x: "L", y: "R.N", fs: "val", ft: "val", ws: true, wt: false},
	{x: "N", y: "N.N", fs: "val", ft: "val", ws: true, wt: true},
	{x: "ε", y: "(L|R)+", fs: "val", ft: "val", ws: true, wt: false},
	{x: "ε", y: "N+", fs: "val", ft: "val", ws: true, wt: true},
	{x: "L+", y: "R", fs: "val", ft: "val", ws: true, wt: false},
	{x: "L.L+", y: "L.R", fs: "val", ft: "val", ws: true, wt: true},
	// Genuinely colliding or unprovable pairs (Yes / Maybe).
	{x: "L.R.L", y: "L.R.L", fs: "val", ft: "val", ws: true, wt: false},
	{x: "L.N*", y: "R.N*", fs: "val", ft: "val", ws: true, wt: true},
	{x: "(L|R)*", y: "N+", fs: "val", ft: "val", ws: false, wt: true},
	// Distinct-handle pairs (A2/A3 territory).
	{x: "N", y: "N", fs: "val", ft: "val", ws: true, wt: true, relation: core.DistinctHandles, distinct: true},
	{x: "L", y: "R", fs: "val", ft: "val", ws: true, wt: false, relation: core.DistinctHandles, distinct: true},
	{x: "L.N", y: "R.N", fs: "val", ft: "val", ws: false, wt: true, relation: core.DistinctHandles, distinct: true},
	// Unknown-handle pairs (both cases must be proved).
	{x: "L", y: "R", fs: "val", ft: "val", ws: true, wt: true, relation: core.UnknownHandles, distinct: true},
	{x: "N", y: "N.N", fs: "val", ft: "val", ws: true, wt: false, relation: core.UnknownHandles, distinct: true},
	// Structural short-circuits (never reach the prover).
	{x: "L", y: "N", fs: "val", ft: "tag", ws: true, wt: true},
	{x: "L.R", y: "R.L", fs: "val", ft: "val", ws: false, wt: false},
}

// WorkloadWindows returns the §3.4 validity windows the workload spans: the
// full leaf-linked binary tree axiom set plus three windows each missing
// one of A1–A3.  Every window preserves the field set {L,R,N}, so all four
// compile DFAs over one alphabet.
func WorkloadWindows() []*axiom.Set {
	full := axiom.LeafLinkedBinaryTree()
	windows := []*axiom.Set{full}
	for drop := 0; drop < 3; drop++ {
		w := axiom.NewSet(fmt.Sprintf("%s-w%d", full.StructName, drop+1))
		for i, a := range full.Axioms {
			if i != drop {
				w.Add(a)
			}
		}
		windows = append(windows, w)
	}
	return windows
}

// Workload generates the deterministic pseudo-random query workload for
// the engine's differential tests and benchmarks: every base access pair ×
// every validity window, issued once in its original orientation and twice
// swapped (S and T exchanged, as symmetric loop passes do), then shuffled
// by the seed.  If n is positive the workload is truncated to n queries.
func Workload(seed int64, n int) []core.Query {
	windows := WorkloadWindows()
	var queries []core.Query
	for _, w := range windows {
		for _, spec := range workloadSpecs {
			q := spec.query(w)
			queries = append(queries, q, swapQuery(q), swapQuery(q))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(queries), func(i, j int) {
		queries[i], queries[j] = queries[j], queries[i]
	})
	if n > 0 && n < len(queries) {
		queries = queries[:n]
	}
	return queries
}

func (s workloadSpec) query(w *axiom.Set) core.Query {
	ht := "h"
	if s.distinct {
		ht = "k"
	}
	return core.Query{
		Axioms:   w,
		S:        core.Access{Handle: "h", Path: pathexpr.MustParse(s.x), Field: s.fs, IsWrite: s.ws},
		T:        core.Access{Handle: ht, Path: pathexpr.MustParse(s.y), Field: s.ft, IsWrite: s.wt},
		Relation: s.relation,
	}
}

// swapQuery exchanges the two accesses, the orientation a symmetric client
// (judging both ⟨a,b⟩ and ⟨b,a⟩) produces.  The dependence kind flips
// between Flow and Anti but the disjointness goals are the same theorems,
// which is exactly what core.GoalKey deduplicates.
func swapQuery(q core.Query) core.Query {
	q.S, q.T = q.T, q.S
	return q
}
