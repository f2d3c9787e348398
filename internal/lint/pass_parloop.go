package lint

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/prover"
)

// parLegality issues a DOALL verdict per while-loop, the paper's §5 use of
// the dependence test: every loop-carried query answered No makes the loop's
// iterations independent and the loop parallelizable.  A provable dependence
// is an error (parallelizing would be wrong); an unproved one is a warning
// whose related notes explain which suffix-split/induction attempt failed,
// quoting the proof-search statistics from the telemetry layer.
type parLegality struct{}

// ParallelizationLegality returns the parallelization-legality pass.
func ParallelizationLegality() Pass { return parLegality{} }

func (parLegality) Name() string { return "parallelization-legality" }
func (parLegality) Doc() string {
	return "per-loop DOALL verdicts from the dependence test (§5)"
}

func (parLegality) Run(ctx *Context) error {
	for _, fn := range ctx.Prog.Funcs {
		if ctx.SkipFunc(fn.Name) {
			continue
		}
		res, err := ctx.Analysis(fn.Name)
		if err != nil {
			ctx.Reportf(fn.Pos, Info,
				"function %s not analyzable (%v); no parallelization verdicts", fn.Name, err)
			continue
		}
		loops := collectLoops(fn.Body)
		if len(loops) == 0 {
			continue
		}
		eng := ctx.Engine()
		byLoop := attributeAccesses(res.Accesses, loops)
		for _, lp := range loops {
			judgeLoop(ctx, res, eng, lp, byLoop[lp.stmt])
		}
	}
	return nil
}

// loopInfo is one while-loop with the source positions its body spans.
type loopInfo struct {
	stmt *lang.WhileStmt
	// positions holds every statement and expression position in the body,
	// including nested loops (accesses are matched against it).
	positions map[lang.Pos]bool
	// assigned lists variables the body assigns (for the loop-invariant
	// write special case).
	assigned map[string]bool
	depth    int
}

// collectLoops returns every while-loop in the block, outermost first.
func collectLoops(b *lang.Block) []*loopInfo {
	var out []*loopInfo
	var walk func(b *lang.Block, depth int)
	walk = func(b *lang.Block, depth int) {
		if b == nil {
			return
		}
		for _, st := range b.Stmts {
			switch v := st.(type) {
			case *lang.WhileStmt:
				lp := &loopInfo{stmt: v, positions: map[lang.Pos]bool{}, assigned: map[string]bool{}, depth: depth}
				lang.WalkStmts(v.Body, func(s lang.Stmt) {
					lp.positions[s.StmtPos()] = true
					collectExprPositions(s, lp.positions)
					if a, ok := s.(*lang.AssignStmt); ok {
						if id, ok := a.LHS.(*lang.Ident); ok {
							lp.assigned[id.Name] = true
						}
					}
				})
				out = append(out, lp)
				walk(v.Body, depth+1)
			case *lang.IfStmt:
				walk(v.Then, depth)
				walk(v.Else, depth)
			case *lang.BlockStmt:
				walk(v.Body, depth)
			}
		}
	}
	walk(b, 0)
	return out
}

func collectExprPositions(st lang.Stmt, into map[lang.Pos]bool) {
	record := func(e lang.Expr) {
		lang.WalkExprs(e, func(x lang.Expr) { into[x.ExprPos()] = true })
	}
	switch s := st.(type) {
	case *lang.AssignStmt:
		record(s.LHS)
		record(s.RHS)
	case *lang.ExprStmt:
		record(s.X)
	case *lang.WhileStmt:
		record(s.Cond)
	case *lang.IfStmt:
		record(s.Cond)
	case *lang.ReturnStmt:
		record(s.Value)
	}
}

// attributeAccesses assigns each recorded heap access to the innermost loop
// whose body contains its position.
func attributeAccesses(accs []analysis.Access, loops []*loopInfo) map[*lang.WhileStmt][]analysis.Access {
	out := map[*lang.WhileStmt][]analysis.Access{}
	for _, a := range accs {
		var best *loopInfo
		for _, lp := range loops {
			if lp.positions[a.Pos] && (best == nil || lp.depth > best.depth) {
				best = lp
			}
		}
		if best != nil {
			out[best.stmt] = append(out[best.stmt], a)
		}
	}
	return out
}

// judgeLoop collects every loop-carried dependence query for one loop,
// answers the whole set in a single engine.Batch call (sharing compiled
// DFAs and canonicalized prover verdicts — symmetric pairs ⟨a,b⟩/⟨b,a⟩
// cost one proof search), and emits its DOALL verdict.  Batch results are
// index-aligned with the submitted queries, so the diagnostics come out in
// the same deterministic order as the old query-at-a-time loop.
func judgeLoop(ctx *Context, res *analysis.Result, eng *engine.Engine, lp *loopInfo, accs []analysis.Access) {
	pos := lp.stmt.StmtPos()
	hasWrite := false
	for _, a := range accs {
		if a.IsWrite {
			hasWrite = true
		}
	}
	if !hasWrite {
		if len(accs) > 0 {
			ctx.Reportf(pos, Info,
				"loop body only reads the structure: No dependence between iterations; DOALL parallelization is legal")
		}
		return
	}

	type judged struct {
		q   core.Query
		out core.Outcome
		a   *analysis.Access
	}
	// A slot is one verdict in the deterministic order the old
	// query-at-a-time loop produced: most slots are answered by the batch
	// (batchIdx ≥ 0), a few are pre-judged during collection.
	type slot struct {
		q core.Query
		a *analysis.Access
		// invariantWrite marks the loop-invariant-write special case: the
		// verdict is a certain output dependence regardless of the prover,
		// so the outcome goes straight to the errors with its own reason.
		invariantWrite bool
		batchIdx       int
		pre            core.Outcome
	}
	var slots []slot
	var batch []core.Query
	add := func(s slot) {
		s.batchIdx = len(batch)
		batch = append(batch, s.q)
		slots = append(slots, s)
	}

	for i := range accs {
		a := &accs[i]
		for _, q := range res.LoopCarriedSelf(a) {
			add(slot{q: q, a: a})
		}
		for j := range accs {
			if i == j {
				continue
			}
			for _, q := range res.LoopCarriedPair(a, &accs[j]) {
				add(slot{q: q, a: a})
			}
		}
		// Loop-invariant write: the induction analysis found no per-iteration
		// advance for this write.  If its variable really is fixed in the
		// body, every iteration writes the same vertex — a certain
		// loop-carried output dependence.  Otherwise the pointer moves in a
		// way the analysis cannot express, and the only sound verdict is
		// Maybe.
		if a.IsWrite && len(a.IterDeltas) == 0 {
			if h, ok := invariantHandle(a); ok && !lp.assigned[a.Var] {
				q := core.Query{
					Axioms: res.Axioms,
					S:      core.Access{Handle: h.Handle, Path: h.Path, Field: a.Field, Type: a.Type, IsWrite: true},
					T:      core.Access{Handle: h.Handle, Path: h.Path, Field: a.Field, Type: a.Type, IsWrite: true},
				}
				add(slot{q: q, a: a, invariantWrite: true})
			} else {
				slots = append(slots, slot{a: a, batchIdx: -1, pre: core.Outcome{
					Result: core.Maybe,
					Reason: fmt.Sprintf("write %s->%s moves in a way the induction analysis cannot express", a.Var, a.Field),
				}})
			}
		}
	}

	outs := eng.Batch(context.Background(), batch)
	var yes, maybe, upgraded []judged
	proved := 0
	for _, s := range slots {
		out := s.pre
		if s.batchIdx >= 0 {
			out = outs[s.batchIdx]
		}
		switch {
		case s.invariantWrite:
			out.Reason = fmt.Sprintf("every iteration writes %s->%s", s.a.Var, s.a.Field)
			yes = append(yes, judged{s.q, out, s.a})
		case out.Result == core.No:
			proved++
			// A guard-upgraded No would have been a Maybe without the
			// path-sensitivity layer: surface which guards discharged it.
			if out.GuardUpgraded {
				upgraded = append(upgraded, judged{s.q, out, s.a})
			}
		case out.Result == core.Yes:
			yes = append(yes, judged{s.q, out, s.a})
		default:
			maybe = append(maybe, judged{s.q, out, s.a})
		}
	}

	switch {
	case len(yes) > 0:
		d := Diagnostic{Pos: pos, Severity: Error,
			Message: "loop carries a provable dependence: DOALL parallelization is illegal"}
		for _, j := range yes {
			d.Related = append(d.Related, Related{Pos: j.a.Pos,
				Message: fmt.Sprintf("%s: %s", describeQuery(j.q), j.out.Reason)})
		}
		ctx.Report(d)
	case len(maybe) > 0:
		d := Diagnostic{Pos: pos, Severity: Warning,
			Message: "loop may carry a dependence: DOALL parallelization not proved legal"}
		for _, j := range maybe {
			d.Related = append(d.Related, Related{Pos: j.a.Pos, Message: explainMaybe(j.q, j.out, j.a)})
		}
		ctx.Report(d)
	case proved > 0 && len(upgraded) > 0:
		d := Diagnostic{Pos: pos, Severity: Info,
			Message: fmt.Sprintf(
				"No dependence between iterations (%d %s proved independent, %d by branch-guard analysis): DOALL parallelization is legal",
				proved, plural(proved, "query", "queries"), len(upgraded)),
			UpgradedFromMaybe: true}
		for _, j := range upgraded {
			d.Related = append(d.Related, Related{Pos: j.a.Pos,
				Message: fmt.Sprintf("%s: %s", describeQuery(j.q), j.out.Reason)})
		}
		ctx.Report(d)
	case proved > 0:
		ctx.Reportf(pos, Info,
			"No dependence between iterations (%d %s proved independent): DOALL parallelization is legal",
			proved, plural(proved, "query", "queries"))
	}
}

// invariantHandle picks the first-named non-iteration handle of a
// loop-invariant access.
func invariantHandle(a *analysis.Access) (analysis.HandlePath, bool) {
	for _, p := range a.Paths {
		if !strings.HasPrefix(p.Handle, "_it") {
			return p, true
		}
	}
	return analysis.HandlePath{}, false
}

// describeQuery renders a loop-carried query compactly for related notes.
func describeQuery(q core.Query) string {
	return fmt.Sprintf("%s vs %s", q.S, q.T)
}

// explainMaybe says which proof attempt failed and how hard the prover
// tried, so the user can tell "not provable from these axioms" apart from
// "budget too small" (§5's suffix splitting and Kleene induction live inside
// these counts).
func explainMaybe(q core.Query, out core.Outcome, a *analysis.Access) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", describeQuery(q), out.Reason)
	if pf := out.Proof; pf != nil {
		switch pf.Result {
		case prover.Exhausted:
			fmt.Fprintf(&b, "; proof search exhausted its budget (%d goals, %d inductions, peak depth %d, %d steps) — a larger budget might still prove independence",
				pf.Stats.ProveCalls, pf.Stats.Inductions, pf.Stats.PeakDepth, pf.Stats.StepsUsed)
		case prover.NotProved:
			fmt.Fprintf(&b, "; prover searched %d goals (%d axiom applications, %d inductions, peak depth %d) without finding a derivation — the axioms likely do not imply independence",
				pf.Stats.ProveCalls, pf.Stats.DirectChecks, pf.Stats.Inductions, pf.Stats.PeakDepth)
		}
	}
	if len(a.LoopModFields) > 0 {
		fmt.Fprintf(&b, "; note: axioms constraining %s are suspended by in-loop structural updates (§3.4)",
			strings.Join(a.LoopModFields, ", "))
	}
	return b.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
