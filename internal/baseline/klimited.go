package baseline

import (
	"math"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// KLimited is the store-based dependence test over a k-limited naming of
// heap vertices (§2.3): the first k vertices along any path from a handle
// receive unique names; everything beyond collapses into one summary
// location.  Consequences:
//
//   - two accesses that can both reach deeper than k steps always conflict
//     (they may both touch the summary location);
//   - within k steps, distinct concrete names require the structure to be
//     tree-like — otherwise the shape graph has already merged vertices and
//     distinct paths may name the same node.
type KLimited struct {
	K      int
	axioms *axiom.Set
	prov   *prover.Prover
	dfas   *automata.SharedCache
}

// NewKLimited builds the baseline with the given k (a typical published
// value is 1 or 2; the paper's discussion uses an unspecified small k).
func NewKLimited(k int, axioms *axiom.Set) *KLimited {
	dfas := automata.NewSharedCache(0, 1, 0)
	return &KLimited{
		K:      k,
		axioms: axioms,
		prov:   prover.New(axioms, prover.Options{DFACache: dfas}),
		dfas:   dfas,
	}
}

// DepTest answers a dependence query under k-limited naming.
func (k *KLimited) DepTest(q core.Query) core.Result {
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
	alpha := alphabetFor(k.axioms, x, y)
	dx, err := k.dfas.DFA(pathexpr.Intern(x), alpha)
	if err != nil {
		return core.Maybe
	}
	dy, err := k.dfas.DFA(pathexpr.Intern(y), alpha)
	if err != nil {
		return core.Maybe
	}

	// Exact same word ⇒ same concrete or summary node either way.
	if !dx.Intersect(dy).IsEmpty() {
		if wx, okx := pathexpr.Word(x); okx {
			if wy, oky := pathexpr.Word(y); oky && wordEq(wx, wy) {
				return core.Yes
			}
		}
		return core.Maybe
	}
	// Both reach past the k-limit ⇒ both may name the summary node.
	if dx.MaxWordLen() > k.K && dy.MaxWordLen() > k.K {
		return core.Maybe
	}
	// Within the k-limit, distinct names are distinct nodes only on
	// tree-certified substructures.
	if !TreeCertified(k.prov, pathexpr.Fields(x, y)) {
		return core.Maybe
	}
	return core.No
}

// LoopIndependent analyses a loop whose induction pointer advances by inc
// per iteration from a handle fixed at loop entry, with each iteration
// accessing inc^i·body.  It returns the number of leading iterations the
// k-limited scheme can prove pairwise independent — the paper: "at best the
// dependence test will prove that only the first k iterations are
// independent" — and the overall loop-carried answer (Maybe whenever the
// iteration space can exceed that bound).
func (k *KLimited) LoopIndependent(inc, body pathexpr.Expr) (int, core.Result) {
	incLen := minWordLen(inc)
	if incLen <= 0 {
		// A non-advancing induction pointer revisits the same names.
		return 0, core.Maybe
	}
	bodyMin := minWordLen(body)
	if bodyMin < 0 {
		bodyMin = 0
	}
	// Iteration i touches names at depth ≥ i*incLen + bodyMin; once that
	// exceeds k the access lands on the summary node.
	distinct := 0
	for i := 0; ; i++ {
		if i*incLen+bodyMin > k.K {
			break
		}
		distinct = i + 1
	}
	if !TreeCertified(k.prov, pathexpr.Fields(inc, body)) {
		distinct = 0
	}
	return distinct, core.Maybe
}

// minWordLen returns the length of the shortest word of e, or -1 when the
// language is empty.
func minWordLen(e pathexpr.Expr) int {
	d, err := automata.Compile(e, automata.AlphabetOf(e))
	if err != nil {
		return math.MaxInt
	}
	w, ok := d.Witness()
	if !ok {
		return -1
	}
	return len(w)
}

// Prover exposes the baseline's internal prover (shared tree certification).
func (k *KLimited) Prover() *prover.Prover { return k.prov }
