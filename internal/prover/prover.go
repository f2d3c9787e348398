package prover

import (
	"errors"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// Options configures a Prover's search.  The zero value selects defaults.
type Options struct {
	// MaxDepth bounds recursion depth (goal nesting).  Default 60.
	MaxDepth int
	// MaxSteps bounds the total number of goals examined per top-level
	// query.  Default 200000.  The paper notes the proof process "can be
	// pruned heuristically and cutoff points set"; exceeding the budget
	// yields Exhausted, which callers must map to Maybe.
	MaxSteps int
	// DFAStateLimit bounds subset construction (automata.DefaultStateLimit
	// if zero).
	DFAStateLimit int
	// LongestSuffixFirst reverses the suffix enumeration order (ablation).
	// The paper prescribes "ever-increasing suffixes", i.e. shortest first.
	LongestSuffixFirst bool
	// DisableMinimize skips DFA minimization in the language cache
	// (ablation).
	DisableMinimize bool
	// DFACache, when non-nil, replaces the prover's private language cache —
	// the batched query engine passes one cache here so every worker prover
	// draws from (and feeds) one compilation cache.  The provider owns the
	// cache's telemetry wiring; DisableMinimize and DFAStateLimit are then
	// ignored.
	DFACache *automata.SharedCache
	// Interrupt, when non-nil, is polled periodically during proof search;
	// returning true aborts the query with Exhausted — which callers map to
	// Maybe, never to an unsound No.  The engine uses this for context
	// cancellation and per-query timeouts.
	Interrupt func() bool
	// Trace, when non-nil, receives one "prover.prove" span per top-level
	// Prove call, parented under TraceParent — the engine sets both so a
	// served request's span tree reaches all the way down to the proof
	// searches (including the ones its interrupt hook cut short).  When
	// nil, the proofs go to Telemetry's trace instead; with neither, the
	// cost is one pointer check per query.  A streaming trace also receives
	// the search's rule-application events, parented under the proof's
	// span.
	Trace       *telemetry.RequestTrace
	TraceParent telemetry.SpanID
	// Telemetry receives aggregate search counters and, unless Trace is
	// set, the proof spans.  Nil (the default) disables instrumentation at
	// ~zero cost on the hot path.
	Telemetry *telemetry.Set
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 60
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 200000
	}
	if o.DFAStateLimit <= 0 {
		o.DFAStateLimit = automata.DefaultStateLimit
	}
	return o
}

// testGoalHook, when non-nil, sees every goal the search enters (with empty
// cuts) and, after its rules ran, the cuts they interned.  Tests use it to
// pin the carried nodes to the components they stand for, and the goal's
// fields to the search's alphabet.  The cuts come by value, so the hook
// does not move a goal's cuts to the heap.
var testGoalHook func(r *run, g goal, cx, cy cuts)

// testFilterHook, when non-nil, sees every direct check the summary filter
// answered alone: (x, y) against the fact (re1, re2), by equivalence when
// equiv, else by inclusion.  Tests use it to decide each one through the
// language layer anyway.
var testFilterHook func(r *run, equiv bool, x, y, re1, re2 *pathexpr.Node)

// errBudget aborts a search that exceeded its resource budget.
var errBudget = errors.New("prover: resource budget exhausted")

// Prover proves disjointness theorems from a fixed axiom set.  A Prover is
// not safe for concurrent use.
type Prover struct {
	axioms *axiom.Set
	// fields are the axiom set's fields and alpha their alphabet, both
	// built by the first search: every search's alphabet is these fields
	// plus its query's, which is alpha itself unless the query brings a
	// field the axioms lack.
	fields []string
	alpha  *automata.Alphabet
	opts   Options
	dfas   *automata.SharedCache
	// disjoint holds the disjointness axioms of each goal form (indexed by
	// Form) with their sides interned, built by the first search (see
	// disjointAxioms), and their sides' summaries over summedOver, the
	// alphabet of the latest search (see summarizeAxioms).
	disjoint   *[2][]disjointAxiom
	summedOver *automata.Alphabet
	// eqWordAxioms are the equality axioms whose both sides are single
	// words, usable for congruence rewriting of prefixes.
	eqWordRewrites [][2][]string
	// trace receives the proof spans (Options.Trace, else the Telemetry
	// set's); m holds the pre-resolved instruments (all nil, hence no-op,
	// when Options.Telemetry is nil).
	trace *telemetry.RequestTrace
	m     proverMetrics
}

// disjointAxiom is a disjointness axiom with interned sides and their
// summaries.
type disjointAxiom struct {
	name     string
	re1, re2 *pathexpr.Node
	s1, s2   automata.Summary
}

// proverMetrics are the prover's pre-resolved registry instruments.
type proverMetrics struct {
	queries        *telemetry.Counter
	goals          *telemetry.Counter
	directChecks   *telemetry.Counter
	filteredChecks *telemetry.Counter
	inductions     *telemetry.Counter
	suffixSplits   *telemetry.Counter
	starUnfolds    *telemetry.Counter
	altSplits      *telemetry.Counter
	exhausted      *telemetry.Counter
	peakDepth      *telemetry.Max
	queryTimeNS    *telemetry.Histogram
	queryWin       *telemetry.WindowHistogram
	querySteps     *telemetry.Histogram
}

func newProverMetrics(tel *telemetry.Set) proverMetrics {
	return proverMetrics{
		queries:        tel.Counter("prover.queries"),
		goals:          tel.Counter("prover.goals"),
		directChecks:   tel.Counter("prover.direct_checks"),
		filteredChecks: tel.Counter("prover.filtered_checks"),
		inductions:     tel.Counter("prover.inductions"),
		suffixSplits:   tel.Counter("prover.suffix_splits"),
		starUnfolds:    tel.Counter("prover.star_unfolds"),
		altSplits:      tel.Counter("prover.alt_splits"),
		exhausted:      tel.Counter("prover.exhausted"),
		peakDepth:      tel.Max("prover.peak_depth"),
		queryTimeNS:    tel.Histogram("prover.query_ns"),
		queryWin:       tel.Window("prover.query_ns"),
		querySteps:     tel.Histogram("prover.steps_per_query"),
	}
}

// New returns a prover over the given axiom set.
func New(axioms *axiom.Set, opts Options) *Prover {
	opts = opts.withDefaults()
	dfas := opts.DFACache
	if dfas == nil {
		// A private cache has one owner, hence one shard.
		dfas = automata.NewSharedCache(opts.DFAStateLimit, 1, 0).SetTelemetry(opts.Telemetry)
		if opts.DisableMinimize {
			dfas.SkipMinimize()
		}
	}
	trace := opts.Trace
	if trace == nil {
		trace = opts.Telemetry.Trace()
	}
	p := &Prover{
		axioms: axioms,
		opts:   opts,
		dfas:   dfas,
		trace:  trace,
		m:      newProverMetrics(opts.Telemetry),
	}
	for _, a := range axioms.ByForm(axiom.SameSrcEqual) {
		w1, ok1 := pathexpr.Word(a.RE1)
		w2, ok2 := pathexpr.Word(a.RE2)
		if ok1 && ok2 {
			p.eqWordRewrites = append(p.eqWordRewrites, [2][]string{w1, w2})
		}
	}
	return p
}

// disjointAxioms returns the disjointness axioms that discharge goals of
// the given form, their sides interned once per prover — on the first
// search, so a prover whose queries the proof memo answers never pays for
// it.  Direct application tries every one on every suffix split.
func (p *Prover) disjointAxioms(form Form) []disjointAxiom {
	if p.disjoint == nil {
		var d [2][]disjointAxiom
		for _, a := range p.axioms.Axioms {
			f := SameSrc
			switch a.Form {
			case axiom.SameSrcDisjoint:
			case axiom.DiffSrcDisjoint:
				f = DiffSrc
			default:
				continue
			}
			d[f] = append(d[f], disjointAxiom{name: a.Name, re1: pathexpr.Intern(a.RE1), re2: pathexpr.Intern(a.RE2)})
		}
		p.disjoint = &d
	}
	return p.disjoint[form]
}

// summarizeAxioms folds every disjointness axiom side's summary over a, the
// alphabet of the search about to start.  A prover's searches share one
// alphabet unless a query brings fields the axioms lack, so this runs once
// per prover in the common case.
func (p *Prover) summarizeAxioms(a *automata.Alphabet) {
	if p.summedOver == a {
		return
	}
	p.disjointAxioms(SameSrc) // builds p.disjoint on first use
	for f := range p.disjoint {
		for i := range p.disjoint[f] {
			d := &p.disjoint[f][i]
			d.s1, d.s2 = automata.Summarize(d.re1.Expr(), a), automata.Summarize(d.re2.Expr(), a)
		}
	}
	p.summedOver = a
}

// alphabet returns the alphabet of a search over x and y: the axiom
// fields' alphabet, built once per prover, when x and y bring no other
// field.  It is built on the first search, not in New, so a prover whose
// queries the proof memo answers never pays for it.
func (p *Prover) alphabet(x, y pathexpr.Expr) *automata.Alphabet {
	if p.alpha == nil {
		p.fields = p.axioms.Fields()
		p.alpha = automata.NewAlphabet(p.fields...)
	}
	if within(x, p.alpha) && within(y, p.alpha) {
		return p.alpha
	}
	// The three-index slice makes append copy: a search never writes into
	// the prover's fields.
	n := len(p.fields)
	return automata.NewAlphabet(append(p.fields[:n:n], pathexpr.Fields(x, y)...)...)
}

// within reports whether every field of e lies in a.
func within(e pathexpr.Expr, a *automata.Alphabet) bool {
	ok := true
	pathexpr.Walk(e, func(x pathexpr.Expr) {
		if f, isField := x.(pathexpr.Field); isField && !a.Contains(f.Name) {
			ok = false
		}
	})
	return ok
}

// Axioms returns the prover's axiom set.
func (p *Prover) Axioms() *axiom.Set { return p.axioms }

// Prove attempts to prove the disjointness theorem of the given form.
func (p *Prover) Prove(form Form, x, y pathexpr.Expr) *Proof {
	return p.ProveNodes(form, pathexpr.Intern(x), pathexpr.Intern(y))
}

// ProveNodes is Prove over interned operands, for callers that hold them
// already (the cross-query proof memo interns both to key the goal): the
// search starts from their cached simplified forms and interns nothing it
// was handed.
func (p *Prover) ProveNodes(form Form, x, y *pathexpr.Node) *Proof {
	g := rootGoal(form, x.Simplified(), y.Simplified())
	timed := p.trace != nil || p.m.queryTimeNS != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	span := p.trace.StartSpanAt("prover.prove", p.opts.TraceParent, t0)
	alpha := p.alphabet(x.Expr(), y.Expr())
	p.summarizeAxioms(alpha)
	r := &run{
		p:     p,
		alpha: alpha,
		dfas:  p.dfas.Account(),
		span:  span.ID(),
	}
	proof := &Proof{Theorem: g.theorem()}
	proved, st, err := r.prove(g, nil, 0)
	proof.Stats = r.stats
	proof.Stats.StepsUsed = r.stats.ProveCalls
	proof.Stats.PeakDepth = r.peakDepth
	proof.Stats.DFACompiles = r.dfas.Compiles
	switch {
	case err != nil:
		proof.Result = Exhausted
	case proved:
		proof.Result = Proved
		proof.Root = st
	default:
		proof.Result = NotProved
	}
	p.m.queries.Add(1)
	p.m.goals.Add(int64(r.stats.ProveCalls))
	p.m.directChecks.Add(int64(r.stats.DirectChecks))
	p.m.filteredChecks.Add(int64(r.stats.FilteredChecks))
	p.m.inductions.Add(int64(r.stats.Inductions))
	if proof.Result == Exhausted {
		p.m.exhausted.Add(1)
	}
	p.m.peakDepth.Observe(int64(r.peakDepth))
	p.m.querySteps.Observe(int64(r.stats.ProveCalls))
	if timed {
		ns := time.Since(t0).Nanoseconds()
		p.m.queryTimeNS.Observe(ns)
		p.m.queryWin.Observe(ns)
	}
	if p.trace != nil {
		span.End(
			telemetry.String("theorem", proof.Theorem),
			telemetry.String("result", proof.Result.String()),
			telemetry.Int("steps", proof.Stats.StepsUsed),
			telemetry.Int("budget", p.opts.MaxSteps),
			telemetry.Int("peak_depth", proof.Stats.PeakDepth),
			telemetry.Int("dfa_compiles", proof.Stats.DFACompiles))
	}
	return proof
}

// DefinitelyAliased reports whether the two access paths provably denote the
// same vertex from a common handle: both are single words and are congruent
// under the equality axioms (identical words are trivially congruent).
// deptest uses this for its Yes answer.  The simplified forms and their
// words are read from the interner, which computes each once per distinct
// path.
func (p *Prover) DefinitelyAliased(x, y pathexpr.Expr) bool {
	w1, ok1 := pathexpr.Intern(x).Simplified().Word()
	w2, ok2 := pathexpr.Intern(y).Simplified().Word()
	if !ok1 || !ok2 {
		return false
	}
	return p.wordsCongruent(w1, w2)
}

// run carries per-query state.
type run struct {
	p     *Prover
	alpha *automata.Alphabet
	// dfas draws from the prover's cache and counts the compiles this
	// search ran, apart from those of other searches sharing the cache.
	dfas automata.Account
	// decideAll turns the summary filter off: CheckProof decides every
	// inclusion it re-derives.
	decideAll bool
	stats     Stats
	// span is the proof's span, the parent of its rule events.
	span telemetry.SpanID
	// peakDepth is the deepest goal nesting reached this query.
	peakDepth int
}

// event emits a rule-application trace event for goal g at depth, under
// the proof's span.  Callers guard it with Streaming(): rendering the goal
// is the expensive part, and only a streaming trace keeps events.
func (r *run) event(name string, g goal, depth int, extra ...telemetry.Attr) {
	attrs := append([]telemetry.Attr{
		telemetry.String("goal", g.String()),
		telemetry.Int("depth", depth),
	}, extra...)
	r.p.trace.Event(name, r.span, attrs...)
}

// prove is the paper's proveDisj: it returns whether a proof of g was found.
// err is non-nil only when the step or DFA budget ran out, aborting the
// whole query.
func (r *run) prove(g goal, lems hyps, depth int) (bool, *Step, error) {
	if testGoalHook != nil {
		testGoalHook(r, g, cuts{}, cuts{})
	}
	r.stats.ProveCalls++
	if r.stats.ProveCalls > r.p.opts.MaxSteps {
		return false, nil, errBudget
	}
	// Poll the interrupt hook on a stride so the check costs nothing when
	// unset and almost nothing when set.
	if r.p.opts.Interrupt != nil && r.stats.ProveCalls&63 == 0 && r.p.opts.Interrupt() {
		return false, nil, errBudget
	}
	if depth > r.peakDepth {
		r.peakDepth = depth
	}
	if depth > r.p.opts.MaxDepth {
		return false, nil, nil
	}

	// Trivial outcomes.
	if len(g.x) == 0 && len(g.y) == 0 {
		if g.form == DiffSrc {
			return true, step(g, RuleTrivial), nil
		}
		return false, nil, nil // same vertex: definitely aliased
	}
	if g.form == SameSrc {
		if w1, ok1 := g.xn.Word(); ok1 {
			if w2, ok2 := g.yn.Word(); ok2 && r.p.wordsCongruent(w1, w2) {
				return false, nil, nil // definite alias: unprovable
			}
		}
	}
	vac, err := r.vacuous(g)
	if err != nil {
		return false, nil, err
	}
	if vac != nil {
		return true, vac, nil
	}

	// The goal's cuts carry its suffixes' summaries, the whole goal's among
	// them, so they are built before the first direct check.
	n, m := len(g.x), len(g.y)
	cx, cy := newCuts(g.x, g.xn, r.alpha), newCuts(g.y, g.yn, r.alpha)
	if testGoalHook != nil {
		defer testGoalHook(r, g, cx, cy)
	}

	// Direct application of a single axiom or induction hypothesis.
	if name, err := r.direct(g.form, split{&cx, &cy, n, m}, lems, g.size()); err != nil {
		return false, nil, err
	} else if name != "" {
		if r.p.trace.Streaming() {
			r.event("prover.axiom", g, depth, telemetry.String("by", name))
		}
		st := step(g, RuleAxiom)
		st.By = name
		return true, st, nil
	}

	// Suffix-split search: the core of proveDisj (steps A–F, Figure 5).
	if ok, st, err := r.splitSearch(g, &cx, &cy, lems, depth); err != nil || ok {
		return ok, st, err
	}

	// Kleene processing (step E): trailing star unfolds into the ε and ⁺
	// cases; trailing plus triggers the paper's induction schema.
	if ok, st, err := r.starUnfold(g, &cx, &cy, lems, depth); err != nil || ok {
		return ok, st, err
	}
	if ok, st, err := r.plusInduction(g, cx.at[n].sum, cy.at[m].sum, lems, depth); err != nil || ok {
		return ok, st, err
	}

	// Alternation processing: a top-level alternative component splits the
	// goal; both branches must be proved.
	if ok, st, err := r.altSplit(g, lems, depth); err != nil || ok {
		return ok, st, err
	}

	return false, nil, nil
}

// vacuous reports a proof when either side denotes the empty language (the
// access path can traverse no edge of the structure, e.g. ∅ components).
func (r *run) vacuous(g goal) (*Step, error) {
	for _, side := range [][]pathexpr.Expr{g.x, g.y} {
		hasEmpty := false
		for _, c := range side {
			if _, ok := c.(pathexpr.Empty); ok {
				hasEmpty = true
				break
			}
		}
		if hasEmpty {
			return step(g, RuleVacuous), nil
		}
	}
	return nil, nil
}

// split names the sides of a goal a direct check tests: the last i
// components of cx and the last j of cy.
type split struct {
	cx, cy *cuts
	i, j   int
}

// nodes returns the split's sides, interning each on first use.
func (s split) nodes() (x, y *pathexpr.Node) { return s.cx.suffix(s.i), s.cy.suffix(s.j) }

// direct attempts to discharge the goal s by a single axiom or lemma whose
// sides include the goal's sides as regular languages (paper: "direct
// application of a single axiom").  It returns the name of the applied fact,
// or "" when none applies.  goalSize guards lemma applicability.
func (r *run) direct(form Form, s split, lems []lemma, goalSize int) (string, error) {
	sx, sy := s.cx.at[s.i].sum, s.cy.at[s.j].sum
	axs := r.p.disjointAxioms(form)
	for k := range axs {
		a := &axs[k]
		// Disjointness facts are symmetric in their two sides.
		ok, err := r.covered(false, s, a.re1, a.re2,
			a.s1.MayInclude(sx) && a.s2.MayInclude(sy),
			a.s2.MayInclude(sx) && a.s1.MayInclude(sy))
		if err != nil {
			return "", err
		}
		if ok {
			return a.name, nil
		}
	}
	for k := range lems {
		l := &lems[k]
		if l.form != form || goalSize >= l.maxSize {
			continue
		}
		// An induction hypothesis is a single arbitrary-but-fixed instance
		// C(i, j), not a universally quantified fact over iteration counts.
		// It may therefore only discharge the goal that *is* that instance —
		// the sides must be language-equal to the hypothesis sides, as
		// happens when suffix splits peel the appended concrete components
		// off the inductive step goal.  Mere language inclusion would let a
		// rewritten form of the step goal discharge itself (unsound; caught
		// by the soundness property tests).  Equal languages have equal
		// summaries.
		ok, err := r.covered(true, s, l.re1, l.re2,
			sx == l.s1 && sy == l.s2,
			sx == l.s2 && sy == l.s1)
		if err != nil {
			return "", err
		}
		if ok {
			return l.String(), nil
		}
	}
	return "", nil
}

// covered is one direct check: whether the split's sides x, y satisfy
// x ⊆ re1 ∧ y ⊆ re2 or x ⊆ re2 ∧ y ⊆ re1 — with ≡ for ⊆ when equiv.  fwd
// and rev are the summary filter's verdicts on the two orientations.  An
// orientation the filter rules out is never decided, and a check it rules
// out in both is answered "no" without interning a side, probing the memo,
// compiling a DFA or searching a product.  The summaries are exact, so a
// filtered orientation's decision would have said no too.
func (r *run) covered(equiv bool, s split, re1, re2 *pathexpr.Node, fwd, rev bool) (bool, error) {
	r.stats.DirectChecks++
	if r.decideAll {
		fwd, rev = true, true
	}
	if !fwd && !rev {
		r.stats.FilteredChecks++
		if testFilterHook != nil {
			x, y := s.nodes()
			testFilterHook(r, equiv, x, y, re1, re2)
		}
		return false, nil
	}
	x, y := s.nodes()
	if fwd {
		if ok, err := r.both(equiv, x, y, re1, re2); err != nil || ok {
			return ok, err
		}
	}
	if !rev {
		return false, nil
	}
	return r.both(equiv, x, y, re2, re1)
}

// both decides x ⊆ re1 ∧ y ⊆ re2 (≡ when equiv) through the language
// layer, the second half only when the first holds.
func (r *run) both(equiv bool, x, y, re1, re2 *pathexpr.Node) (bool, error) {
	ok, err := r.decide(equiv, x, re1)
	if err != nil || !ok {
		return false, err
	}
	return r.decide(equiv, y, re2)
}

// decide answers x ≡ y when equiv, else x ⊆ y, through the prover's DFA
// cache; a blown state budget aborts the search.
func (r *run) decide(equiv bool, x, y *pathexpr.Node) (bool, error) {
	var ok bool
	var err error
	if equiv {
		ok, err = r.dfas.Equivalent(x, y, r.alpha)
	} else {
		ok, err = r.dfas.Includes(x, y, r.alpha)
	}
	if err != nil {
		return false, errBudget
	}
	return ok, nil
}

// splitSearch enumerates suffix splits (Sp, Sq) of the goal's paths at
// component boundaries, shortest suffixes first (the paper's
// "ever-increasing suffixes"), and applies the four cases of Figure 5:
//
//	A∧B:  suffixes provably disjoint from both same and distinct sources
//	C:    T1 and the prefixes provably denote the same vertex
//	D:    T2 and the prefixes provably denote disjoint vertex sets
//
// cx and cy are the goal's cuts: every suffix and prefix the search tries
// is interned once per goal, not once per split and axiom.
func (r *run) splitSearch(g goal, cx, cy *cuts, lems hyps, depth int) (bool, *Step, error) {
	n, m := len(g.x), len(g.y)
	total := n + m
	sizes := make([]int, 0, total)
	for s := 1; s <= total; s++ {
		sizes = append(sizes, s)
	}
	if r.p.opts.LongestSuffixFirst {
		for i, j := 0, len(sizes)-1; i < j; i, j = i+1, j-1 {
			sizes[i], sizes[j] = sizes[j], sizes[i]
		}
	}
	for _, s := range sizes {
		for i := 0; i <= n && i <= s; i++ {
			j := s - i
			if j > m {
				continue
			}
			size := sliceSize(g.x[n-i:]) + sliceSize(g.y[m-j:])

			sp := split{cx, cy, i, j}
			t1, err := r.direct(SameSrc, sp, lems, size)
			if err != nil {
				return false, nil, err
			}
			t2, err := r.direct(DiffSrc, sp, lems, size)
			if err != nil {
				return false, nil, err
			}
			if t1 != "" && t2 != "" {
				r.p.m.suffixSplits.Add(1)
				if r.p.trace.Streaming() {
					r.event("prover.suffix_split", g, depth,
						telemetry.String("case", "A∧B"),
						telemetry.Int("i", i), telemetry.Int("j", j),
						telemetry.String("t1", t1), telemetry.String("t2", t2))
				}
				st := step(g, RuleSuffixAB)
				st.SuffixI, st.SuffixJ = i, j
				st.ByT1, st.ByT2 = t1, t2
				return true, st, nil
			}
			// Case C is sound only for same-anchored goals: equal prefix
			// paths from the SAME handle denote one vertex; from distinct
			// handles h <> k they denote distinct vertices.
			if t1 != "" && g.form == SameSrc && r.prefixesEqual(cx, cy, n-i, m-j) {
				r.p.m.suffixSplits.Add(1)
				if r.p.trace.Streaming() {
					r.event("prover.suffix_split", g, depth,
						telemetry.String("case", "C"),
						telemetry.Int("i", i), telemetry.Int("j", j),
						telemetry.String("t1", t1))
				}
				st := step(g, RuleCaseC)
				st.SuffixI, st.SuffixJ = i, j
				st.ByT1 = t1
				return true, st, nil
			}
			if t2 != "" {
				// Case D recurses with the goal's own quantifier form: for a
				// DiffSrc goal the prefixes hang off distinct anchors.
				if g.form == SameSrc && i == n && j == m {
					continue // prefixes denote the same vertex: case D impossible
				}
				// The prefixes of a normalized goal are normalized already.
				sub := goal{form: g.form, x: g.x[: n-i : n-i], y: g.y[: m-j : m-j], xn: cx.prefix(n - i), yn: cy.prefix(m - j)}
				proved, st, err := r.prove(sub, lems, depth+1)
				if err != nil {
					return false, nil, err
				}
				if proved {
					r.p.m.suffixSplits.Add(1)
					if r.p.trace.Streaming() {
						r.event("prover.suffix_split", g, depth,
							telemetry.String("case", "D"),
							telemetry.Int("i", i), telemetry.Int("j", j),
							telemetry.String("t2", t2))
					}
					node := step(g, RuleCaseD)
					node.SuffixI, node.SuffixJ = i, j
					node.ByT2 = t2
					node.Children = []*Step{st}
					return true, node, nil
				}
			}
		}
	}
	return false, nil, nil
}

func sliceSize(comps []pathexpr.Expr) int {
	n := 0
	for _, c := range comps {
		n += c.Size()
	}
	return n
}

func exprOrEps(comps []pathexpr.Expr) string {
	if len(comps) == 0 {
		return "ε"
	}
	return expr(comps).String()
}

// prefixesEqual reports whether the prefixes of lengths k and l provably
// denote the same single vertex: both languages hold exactly one word, and
// the two words are congruent under the word-equality axioms.  The size
// classes are exact structural facts cached on the interned prefixes (see
// pathexpr.Node.Singleton); every field of a goal lies in the search's
// alphabet, so they agree with the prefixes' automata.
func (r *run) prefixesEqual(cx, cy *cuts, k, l int) bool {
	c1, w1 := cx.prefix(k).Singleton()
	if c1 != pathexpr.OneWord {
		return false
	}
	c2, w2 := cy.prefix(l).Singleton()
	return c2 == pathexpr.OneWord && r.p.wordsCongruent(w1, w2)
}

// starUnfold handles a trailing Kleene-star component by splitting it into
// its ε and one-or-more cases: L(U·a*) = L(U) ∪ L(U·a⁺).  Both resulting
// goals must be proved.  Combined with plusInduction this realizes the
// paper's 3-case (single star) and 7-case (double star) schemata.
func (r *run) starUnfold(g goal, cx, cy *cuts, lems hyps, depth int) (bool, *Step, error) {
	// unfold returns the ε case — the side's prefix u, normalized already,
	// and its node — and the ⁺ case's components.
	unfold := func(side *cuts) ([]pathexpr.Expr, *pathexpr.Node, []pathexpr.Expr, bool) {
		k := len(side.comps) - 1
		if k < 0 {
			return nil, nil, nil, false
		}
		st, ok := side.comps[k].(pathexpr.Star)
		if !ok {
			return nil, nil, nil, false
		}
		u := side.comps[:k:k]
		withPlus := append(append([]pathexpr.Expr{}, u...), pathexpr.Rep1(st.Inner))
		return u, side.prefix(k), withPlus, true
	}
	if u, un, plus, ok := unfold(cx); ok {
		if r.p.trace.Streaming() {
			r.event("prover.star_unfold", g, depth, telemetry.String("side", "left"))
		}
		g1 := goal{form: g.form, x: u, y: g.y, xn: un, yn: g.yn}
		g2 := newGoal(g.form, plus, g.y)
		p1, s1, err := r.prove(g1, lems, depth+1)
		if err != nil || !p1 {
			return false, nil, err
		}
		p2, s2, err := r.prove(g2, lems, depth+1)
		if err != nil || !p2 {
			return false, nil, err
		}
		r.p.m.starUnfolds.Add(1)
		st := step(g, RuleStarUnfold)
		st.StarOnLeft = true
		st.Children = []*Step{s1, s2}
		return true, st, nil
	}
	if u, un, plus, ok := unfold(cy); ok {
		if r.p.trace.Streaming() {
			r.event("prover.star_unfold", g, depth, telemetry.String("side", "right"))
		}
		g1 := goal{form: g.form, x: g.x, y: u, xn: g.xn, yn: un}
		g2 := newGoal(g.form, g.x, plus)
		p1, s1, err := r.prove(g1, lems, depth+1)
		if err != nil || !p1 {
			return false, nil, err
		}
		p2, s2, err := r.prove(g2, lems, depth+1)
		if err != nil || !p2 {
			return false, nil, err
		}
		r.p.m.starUnfolds.Add(1)
		st := step(g, RuleStarUnfold)
		st.Children = []*Step{s1, s2}
		return true, st, nil
	}
	return false, nil, nil
}

// plusInduction applies the paper's Kleene induction (§4.1, step E).  For a
// single trailing plus (X = U·a⁺) the cases are the base (U·a) and the
// inductive step: assume the claim for U·a⁺ and prove it for U·a⁺·a, with
// the hypothesis admitted only on strictly smaller goals.  For two trailing
// pluses the paper's four sub-cases 4.1–4.4 apply.  sx and sy summarize
// the goal's sides; the hypothesis carries them.
func (r *run) plusInduction(g goal, sx, sy automata.Summary, lems hyps, depth int) (bool, *Step, error) {
	xp, xok := trailingPlus(g.x)
	yp, yok := trailingPlus(g.y)
	switch {
	case xok && yok:
		r.stats.Inductions++
		if r.p.trace.Streaming() {
			r.event("prover.plus_induction", g, depth, telemetry.String("schema", "double"))
		}
		u, a := g.x[:len(g.x)-1], xp.Inner
		v, b := g.y[:len(g.y)-1], yp.Inner
		cases := []goal{
			newGoal(g.form, appendComp(u, a), appendComp(v, b)),                // 4.1 (a, b)
			newGoal(g.form, appendComp(u, pathexpr.Rep1(a)), appendComp(v, b)), // 4.2 (a⁺, b)
			newGoal(g.form, appendComp(u, a), appendComp(v, pathexpr.Rep1(b))), // 4.3 (a, b⁺)
		}
		var kids []*Step
		for _, c := range cases {
			ok, st, err := r.prove(c, lems, depth+1)
			if err != nil || !ok {
				return false, nil, err
			}
			kids = append(kids, st)
		}
		// 4.4: assume (a⁺, b⁺), prove (a⁺a, b⁺b).
		stepX := appendComp(g.x, a)
		stepY := appendComp(g.y, b)
		ih := lemma{form: g.form, re1: g.xn, re2: g.yn, s1: sx, s2: sy, maxSize: sliceSize(stepX) + sliceSize(stepY)}
		ok, st, err := r.prove(newGoal(g.form, stepX, stepY), lems.with(ih), depth+1)
		if err != nil || !ok {
			return false, nil, err
		}
		kids = append(kids, st)
		node := step(g, RulePlusInduction)
		node.Children = kids
		return true, node, nil

	case xok:
		r.stats.Inductions++
		if r.p.trace.Streaming() {
			r.event("prover.plus_induction", g, depth, telemetry.String("schema", "left"))
		}
		u, a := g.x[:len(g.x)-1], xp.Inner
		base := newGoal(g.form, appendComp(u, a), g.y)
		ok, s1, err := r.prove(base, lems, depth+1)
		if err != nil || !ok {
			return false, nil, err
		}
		stepX := appendComp(g.x, a)
		ih := lemma{form: g.form, re1: g.xn, re2: g.yn, s1: sx, s2: sy, maxSize: sliceSize(stepX) + sliceSize(g.y)}
		ok, s2, err := r.prove(newGoal(g.form, stepX, g.y), lems.with(ih), depth+1)
		if err != nil || !ok {
			return false, nil, err
		}
		node := step(g, RulePlusInduction)
		node.StarOnLeft = true
		node.Children = []*Step{s1, s2}
		return true, node, nil

	case yok:
		r.stats.Inductions++
		if r.p.trace.Streaming() {
			r.event("prover.plus_induction", g, depth, telemetry.String("schema", "right"))
		}
		v, b := g.y[:len(g.y)-1], yp.Inner
		base := newGoal(g.form, g.x, appendComp(v, b))
		ok, s1, err := r.prove(base, lems, depth+1)
		if err != nil || !ok {
			return false, nil, err
		}
		stepY := appendComp(g.y, b)
		ih := lemma{form: g.form, re1: g.xn, re2: g.yn, s1: sx, s2: sy, maxSize: sliceSize(g.x) + sliceSize(stepY)}
		ok, s2, err := r.prove(newGoal(g.form, g.x, stepY), lems.with(ih), depth+1)
		if err != nil || !ok {
			return false, nil, err
		}
		node := step(g, RulePlusInduction)
		node.Children = []*Step{s1, s2}
		return true, node, nil
	}
	return false, nil, nil
}

func trailingPlus(side []pathexpr.Expr) (pathexpr.Plus, bool) {
	if len(side) == 0 {
		return pathexpr.Plus{}, false
	}
	p, ok := side[len(side)-1].(pathexpr.Plus)
	return p, ok
}

func appendComp(side []pathexpr.Expr, c pathexpr.Expr) []pathexpr.Expr {
	out := make([]pathexpr.Expr, 0, len(side)+1)
	out = append(out, side...)
	out = append(out, c)
	return out
}

// altSplit handles a top-level alternative component: the goal splits into
// one goal per alternative, and all must be proved (paper: "both
// alternatives must result in a successful proof").  The rightmost
// alternative component is split first, mirroring suffix-directed search.
func (r *run) altSplit(g goal, lems hyps, depth int) (bool, *Step, error) {
	trySide := func(side []pathexpr.Expr, isX bool) (bool, *Step, error) {
		for i := len(side) - 1; i >= 0; i-- {
			alt, ok := side[i].(pathexpr.Alt)
			if !ok {
				continue
			}
			var kids []*Step
			for _, choice := range alt.Alts {
				repl := make([]pathexpr.Expr, len(side))
				copy(repl, side)
				repl[i] = choice
				var sub goal
				if isX {
					sub = newGoal(g.form, repl, g.y)
				} else {
					sub = newGoal(g.form, g.x, repl)
				}
				proved, st, err := r.prove(sub, lems, depth+1)
				if err != nil || !proved {
					return false, nil, err
				}
				kids = append(kids, st)
			}
			r.p.m.altSplits.Add(1)
			if r.p.trace.Streaming() {
				r.event("prover.alt_split", g, depth,
					telemetry.Bool("left", isX), telemetry.Int("alts", len(alt.Alts)))
			}
			node := step(g, RuleAltSplit)
			node.AltOnLeft = isX
			node.AltIndex = i
			node.Children = kids
			return true, node, nil
		}
		return false, nil, nil
	}
	if ok, st, err := trySide(g.x, true); err != nil || ok {
		return ok, st, err
	}
	return trySide(g.y, false)
}

// wordsCongruent reports whether two words are equal modulo the word-level
// equality axioms (∀p, p.w1 = p.w2 with both sides single words).  It
// performs bounded BFS over rewrites applied at any position, in either
// direction.
func (p *Prover) wordsCongruent(w1, w2 []string) bool {
	if wordsEqual(w1, w2) {
		return true
	}
	if len(p.eqWordRewrites) == 0 {
		return false
	}
	maxRewrite := 0
	for _, rw := range p.eqWordRewrites {
		if len(rw[0]) > maxRewrite {
			maxRewrite = len(rw[0])
		}
		if len(rw[1]) > maxRewrite {
			maxRewrite = len(rw[1])
		}
	}
	lenCap := len(w1) + len(w2) + maxRewrite
	const nodeCap = 1024

	start := wordKey(w1)
	target := wordKey(w2)
	seen := map[string]bool{start: true}
	frontier := [][]string{w1}
	for len(frontier) > 0 && len(seen) < nodeCap {
		var next [][]string
		for _, w := range frontier {
			for _, rw := range p.eqWordRewrites {
				for _, dir := range [][2][]string{{rw[0], rw[1]}, {rw[1], rw[0]}} {
					from, to := dir[0], dir[1]
					for pos := 0; pos+len(from) <= len(w); pos++ {
						if !wordsEqual(w[pos:pos+len(from)], from) {
							continue
						}
						out := make([]string, 0, len(w)-len(from)+len(to))
						out = append(out, w[:pos]...)
						out = append(out, to...)
						out = append(out, w[pos+len(from):]...)
						if len(out) > lenCap {
							continue
						}
						k := wordKey(out)
						if seen[k] {
							continue
						}
						if k == target {
							return true
						}
						seen[k] = true
						next = append(next, out)
					}
				}
			}
		}
		frontier = next
	}
	return false
}

func wordsEqual(a, b []string) bool {
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

// wordKey is w's identity in the congruence search's seen set: the fields
// each terminated by NUL, built in one pass.
func wordKey(w []string) string {
	var b strings.Builder
	for _, s := range w {
		b.WriteString(s)
		b.WriteByte(0)
	}
	return b.String()
}
