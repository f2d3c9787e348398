// Package prover implements the theorem-proving core of APT (paper §4.1):
// given a set of aliasing axioms, it attempts to prove theorems of no
// dependence of the form
//
//	∀ vertices h,      h.X <> h.Y      (SameSrc)
//	∀ vertices h <> k, h.X <> k.Y      (DiffSrc)
//
// by the paper's proveDisj procedure: enumerate suffix splits of the two
// paths, discharge the suffixes by direct axiom application (regular
// language inclusion, decided with DFAs), discharge the prefixes by
// equality (case C) or recursive disjointness (case D), split alternations,
// and perform structural induction on trailing Kleene components.
//
// The prover is complete with respect to its proof system under the
// configured resource budget: it either finds a proof, fails definitively,
// or reports exhaustion — which callers must map to Maybe, never to No.
package prover

import (
	"encoding/binary"
	"sort"
	"strings"

	"repro/internal/pathexpr"
)

// Form distinguishes the two quantifier shapes of a disjointness goal.
type Form int

// Goal forms.
const (
	// SameSrc is ∀h, h.X <> h.Y: paths anchored at the same vertex.
	SameSrc Form = iota
	// DiffSrc is ∀h<>k, h.X <> k.Y: paths anchored at distinct vertices.
	DiffSrc
)

func (f Form) String() string {
	if f == SameSrc {
		return "∀h, h.X <> h.Y"
	}
	return "∀h<>k, h.X <> k.Y"
}

// goal is a normalized disjointness obligation over component sequences.
// Each side carries the interned node of its concatenation (xn, yn): the
// proof cache, the language-decision memo and the DFA cache all key on node
// IDs, so a side is interned once, when its goal is built, and never
// reassembled or re-hashed after that.
type goal struct {
	form   Form
	x, y   []pathexpr.Expr
	xn, yn *pathexpr.Node
}

// newGoal normalizes the component sequences — each component is
// simplified, ε components are dropped, and nested concatenations are
// spliced — and interns both sides.
func newGoal(form Form, x, y []pathexpr.Expr) goal {
	x, y = normalize(x), normalize(y)
	return goal{form: form, x: x, y: y, xn: intern(x), yn: intern(y)}
}

// rootGoal is the goal of a top-level query over already-simplified
// interned sides (see Prover.ProveNodes).  The sides' components are
// normalized as newGoal would; the carried nodes are the arguments
// themselves, which the interner's identity invariant makes equal to
// interning the normalized components (TestGoalNodesMatchComponents pins
// this).
func rootGoal(form Form, x, y *pathexpr.Node) goal {
	return goal{
		form: form,
		x:    normalize(pathexpr.Components(x.Expr())),
		y:    normalize(pathexpr.Components(y.Expr())),
		xn:   x,
		yn:   y,
	}
}

func normalize(comps []pathexpr.Expr) []pathexpr.Expr {
	var out []pathexpr.Expr
	for _, c := range comps {
		s := pathexpr.Simplify(c)
		switch v := s.(type) {
		case pathexpr.Epsilon:
			continue
		case pathexpr.Concat:
			out = append(out, normalize(v.Parts)...)
		default:
			out = append(out, s)
		}
	}
	return out
}

// expr reassembles a component sequence into a single expression.
func expr(comps []pathexpr.Expr) pathexpr.Expr {
	return pathexpr.FromComponents(comps)
}

// intern returns the interned node of a component sequence's
// concatenation.
func intern(comps []pathexpr.Expr) *pathexpr.Node {
	return pathexpr.Intern(expr(comps))
}

// epsNode is the interned ε: the empty suffix or prefix of a side.
var epsNode = pathexpr.Intern(pathexpr.Eps)

// wordOf returns the word a normalized component sequence spells when
// every component is a single field — pathexpr.Word of its concatenation,
// without reassembling it.
func wordOf(comps []pathexpr.Expr) ([]string, bool) {
	for _, c := range comps {
		if _, ok := c.(pathexpr.Field); !ok {
			return nil, false
		}
	}
	w := make([]string, len(comps))
	for i, c := range comps {
		w[i] = c.(pathexpr.Field).Name
	}
	return w, true
}

// size is the structural measure of a goal used to guard induction
// hypotheses: the total pathexpr.Size of both sides.
func (g goal) size() int {
	return sliceSize(g.x) + sliceSize(g.y)
}

func (g goal) String() string {
	lhs, rhs := pathexpr.Compact(expr(g.x)), pathexpr.Compact(expr(g.y))
	if g.form == SameSrc {
		return "∀h, h." + lhs + " <> h." + rhs
	}
	return "∀h<>k, h." + lhs + " <> k." + rhs
}

// goalKey is the canonical cache identity of a goal: its form plus the
// interned IDs of its sides.  Interned IDs biject with the canonical
// renderings the old string key concatenated, so the cache's equality
// classes — and therefore its hit pattern, and therefore the proof trees it
// reproduces — are unchanged.
type goalKey struct {
	form Form
	x, y uint64
}

// key returns the canonical cache key of the goal: two loads from the
// carried nodes, no reassembly, no interning.
func (g goal) key() goalKey {
	return goalKey{form: g.form, x: g.xn.ID(), y: g.yn.ID()}
}

// cuts holds the interned suffixes and prefixes of one goal side for the
// suffix-split search and the rules after it.  Each is interned on first
// use and at most once per goal; the empty cut is ε and the full cut is the
// side's own node.
type cuts struct {
	comps []pathexpr.Expr
	whole *pathexpr.Node
	suf   []*pathexpr.Node // suf[i]: the last i components
	pre   []*pathexpr.Node // pre[k]: the first k components
}

func newCuts(comps []pathexpr.Expr, whole *pathexpr.Node) *cuts {
	n := len(comps)
	nodes := make([]*pathexpr.Node, 2*(n+1))
	return &cuts{comps: comps, whole: whole, suf: nodes[:n+1], pre: nodes[n+1:]}
}

// suffix returns the node of the last i components.
func (c *cuts) suffix(i int) *pathexpr.Node {
	n := len(c.comps)
	switch i {
	case 0:
		return epsNode
	case n:
		return c.whole
	}
	if c.suf[i] == nil {
		c.suf[i] = intern(c.comps[n-i:])
	}
	return c.suf[i]
}

// prefix returns the node of the first k components.
func (c *cuts) prefix(k int) *pathexpr.Node {
	switch k {
	case 0:
		return epsNode
	case len(c.comps):
		return c.whole
	}
	if c.pre[k] == nil {
		c.pre[k] = intern(c.comps[:k])
	}
	return c.pre[k]
}

// lemma is an induction hypothesis: a disjointness fact assumed during the
// inductive step of Kleene processing.  It may only be applied to goals
// strictly smaller than the step goal it was introduced for (maxSize), which
// is the well-founded guard that keeps the induction from discharging
// itself.
type lemma struct {
	form     Form
	re1, re2 *pathexpr.Node
	maxSize  int
}

func (l lemma) String() string {
	var b strings.Builder
	b.WriteString("IH[")
	if l.form == SameSrc {
		b.WriteString("∀h, h.")
	} else {
		b.WriteString("∀h<>k, h.")
	}
	b.WriteString(l.re1.String())
	b.WriteString(" <> ")
	b.WriteString(l.re2.String())
	b.WriteString("]")
	return b.String()
}

// hyps is the list of induction hypotheses in scope together with its
// cache fingerprint (lemmaKey).  The fingerprint is computed once, when an
// induction pushes a hypothesis, so building a proof-cache key under
// hypotheses costs no more than building one without.
type hyps struct {
	list []lemma
	key  string
}

// with returns h extended by l, leaving h itself untouched.
func (h hyps) with(l lemma) hyps {
	list := append(append(make([]lemma, 0, len(h.list)+1), h.list...), l)
	return hyps{list: list, key: lemmaKey(list)}
}

// lemmaFP is one lemma's cache identity: its form and the interned IDs of
// its sides.  maxSize is deliberately excluded, matching the rendering-based
// fingerprint this replaced (a hypothesis re-admitted at a different guard
// still states the same disjointness fact).
type lemmaFP struct {
	form     Form
	re1, re2 uint64
}

// lemmaKey fingerprints a lemma list for cache keys: the multiset of lemma
// identities in a canonical order (lemma order does not affect
// applicability), packed into a string so the result can sit inside a
// comparable struct key.
func lemmaKey(lems []lemma) string {
	if len(lems) == 0 {
		return ""
	}
	fps := make([]lemmaFP, len(lems))
	for i, l := range lems {
		fps[i] = lemmaFP{form: l.form, re1: l.re1.ID(), re2: l.re2.ID()}
	}
	sort.Slice(fps, func(i, j int) bool {
		a, b := fps[i], fps[j]
		if a.form != b.form {
			return a.form < b.form
		}
		if a.re1 != b.re1 {
			return a.re1 < b.re1
		}
		return a.re2 < b.re2
	})
	buf := make([]byte, 0, len(fps)*17)
	for _, fp := range fps {
		buf = append(buf, byte(fp.form))
		buf = binary.BigEndian.AppendUint64(buf, fp.re1)
		buf = binary.BigEndian.AppendUint64(buf, fp.re2)
	}
	return string(buf)
}
