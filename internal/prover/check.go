package prover

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/pathexpr"
)

// CheckProof re-validates a proof independently of the search that produced
// it: every rule application is re-derived from the axioms (inclusion tests
// re-run, suffix splits re-taken, induction hypotheses re-constructed with
// their guards).  A proof that passes CheckProof is a genuine derivation in
// APT's proof system regardless of any bug in the search heuristics.
func (p *Prover) CheckProof(pf *Proof) error {
	if pf == nil || pf.Result != Proved {
		return fmt.Errorf("prover: only proved results carry a checkable derivation")
	}
	if pf.Root == nil {
		return fmt.Errorf("prover: proved result with no derivation")
	}
	// The root must derive the stated theorem.
	rootGoal := stepGoal(pf.Root)
	if rootGoal.String() != pf.Theorem {
		return fmt.Errorf("prover: root derives %q, theorem is %q", rootGoal.String(), pf.Theorem)
	}
	fields := append(p.axioms.Fields(), collectFields(pf.Root)...)
	c := &checker{run: &run{
		p:         p,
		alpha:     automata.NewAlphabet(fields...),
		dfas:      p.dfas.Account(),
		decideAll: true,
	}}
	return c.check(pf.Root, nil)
}

func collectFields(st *Step) []string {
	if st == nil {
		return nil
	}
	out := pathexpr.Fields(st.X, st.Y)
	for _, ch := range st.Children {
		out = append(out, collectFields(ch)...)
	}
	return out
}

func stepGoal(st *Step) goal {
	return newGoal(st.Form, pathexpr.Components(st.X), pathexpr.Components(st.Y))
}

type checker struct {
	run *run
}

func (c *checker) fail(st *Step, format string, args ...any) error {
	return fmt.Errorf("checkproof: %s at %s: %s", st.Rule, st.GoalString(), fmt.Sprintf(format, args...))
}

func (c *checker) check(st *Step, lems hyps) error {
	if st == nil {
		return fmt.Errorf("checkproof: missing derivation")
	}
	g := stepGoal(st)
	cx, cy := g.x, g.y
	kx, ky := newCuts(cx, g.xn, c.run.alpha), newCuts(cy, g.yn, c.run.alpha)

	switch st.Rule {
	case RuleTrivial:
		if g.form != DiffSrc || len(cx) != 0 || len(cy) != 0 {
			return c.fail(st, "trivial rule applies only to ∀h<>k, h.ε <> k.ε")
		}

	case RuleVacuous:
		ok := false
		for _, comp := range append(append([]pathexpr.Expr{}, cx...), cy...) {
			if _, isEmpty := comp.(pathexpr.Empty); isEmpty {
				ok = true
			}
		}
		if !ok {
			return c.fail(st, "no empty-language component")
		}

	case RuleAxiom:
		name, err := c.run.direct(g.form, split{&kx, &ky, len(cx), len(cy)}, lems, g.size())
		if err != nil {
			return c.fail(st, "inclusion test failed: %v", err)
		}
		if name == "" {
			return c.fail(st, "no axiom or hypothesis covers the goal")
		}

	case RuleSuffixAB, RuleCaseC, RuleCaseD:
		i, j := st.SuffixI, st.SuffixJ
		if i < 0 || j < 0 || i > len(cx) || j > len(cy) || i+j < 1 {
			return c.fail(st, "invalid suffix split (%d, %d)", i, j)
		}
		spc, sqc := cx[len(cx)-i:], cy[len(cy)-j:]
		pp, pq := cx[:len(cx)-i], cy[:len(cy)-j]
		sp := split{&kx, &ky, i, j}
		size := sliceSize(spc) + sliceSize(sqc)
		switch st.Rule {
		case RuleSuffixAB:
			if name, err := c.run.direct(SameSrc, sp, lems, size); err != nil || name == "" {
				return c.fail(st, "T1 not derivable for suffixes (%s | %s)", exprOrEps(spc), exprOrEps(sqc))
			}
			if name, err := c.run.direct(DiffSrc, sp, lems, size); err != nil || name == "" {
				return c.fail(st, "T2 not derivable for suffixes (%s | %s)", exprOrEps(spc), exprOrEps(sqc))
			}
		case RuleCaseC:
			if g.form != SameSrc {
				return c.fail(st, "case C requires a same-anchor goal")
			}
			if name, err := c.run.direct(SameSrc, sp, lems, size); err != nil || name == "" {
				return c.fail(st, "T1 not derivable")
			}
			if !c.run.prefixesEqual(&kx, &ky, len(pp), len(pq)) {
				return c.fail(st, "prefixes %s and %s not provably equal", exprOrEps(pp), exprOrEps(pq))
			}
		case RuleCaseD:
			if name, err := c.run.direct(DiffSrc, sp, lems, size); err != nil || name == "" {
				return c.fail(st, "T2 not derivable")
			}
			if len(st.Children) != 1 {
				return c.fail(st, "case D needs exactly one subproof")
			}
			want := newGoal(g.form, pp, pq)
			if err := c.expectGoal(st.Children[0], want); err != nil {
				return err
			}
			return c.check(st.Children[0], lems)
		}

	case RuleStarUnfold:
		side, other := cx, cy
		if !st.StarOnLeft {
			side, other = cy, cx
		}
		if len(side) == 0 {
			return c.fail(st, "no trailing component to unfold")
		}
		star, ok := side[len(side)-1].(pathexpr.Star)
		if !ok {
			return c.fail(st, "trailing component is not a star")
		}
		u := side[:len(side)-1]
		epsCase := append([]pathexpr.Expr{}, u...)
		plusCase := append(append([]pathexpr.Expr{}, u...), pathexpr.Rep1(star.Inner))
		var g1, g2 goal
		if st.StarOnLeft {
			g1, g2 = newGoal(g.form, epsCase, other), newGoal(g.form, plusCase, other)
		} else {
			g1, g2 = newGoal(g.form, other, epsCase), newGoal(g.form, other, plusCase)
		}
		if len(st.Children) != 2 {
			return c.fail(st, "star unfold needs two subproofs")
		}
		if err := c.expectGoal(st.Children[0], g1); err != nil {
			return err
		}
		if err := c.expectGoal(st.Children[1], g2); err != nil {
			return err
		}
		if err := c.check(st.Children[0], lems); err != nil {
			return err
		}
		return c.check(st.Children[1], lems)

	case RulePlusInduction:
		return c.checkInduction(st, g, lems)

	case RuleAltSplit:
		side := cx
		if !st.AltOnLeft {
			side = cy
		}
		if st.AltIndex < 0 || st.AltIndex >= len(side) {
			return c.fail(st, "alt index out of range")
		}
		alt, ok := side[st.AltIndex].(pathexpr.Alt)
		if !ok {
			return c.fail(st, "component %d is not an alternation", st.AltIndex)
		}
		if len(st.Children) != len(alt.Alts) {
			return c.fail(st, "%d subproofs for %d alternatives", len(st.Children), len(alt.Alts))
		}
		for k, choice := range alt.Alts {
			repl := make([]pathexpr.Expr, len(side))
			copy(repl, side)
			repl[st.AltIndex] = choice
			var want goal
			if st.AltOnLeft {
				want = newGoal(g.form, repl, cy)
			} else {
				want = newGoal(g.form, cx, repl)
			}
			if err := c.expectGoal(st.Children[k], want); err != nil {
				return err
			}
			if err := c.check(st.Children[k], lems); err != nil {
				return err
			}
		}

	default:
		return c.fail(st, "unknown rule")
	}
	return nil
}

// checkInduction re-derives the paper's Kleene induction schema from the
// goal shape and validates the subproofs, admitting the induction
// hypothesis only in the step case and only under its size guard.
func (c *checker) checkInduction(st *Step, g goal, lems hyps) error {
	cx, cy := g.x, g.y
	xp, xok := trailingPlus(cx)
	yp, yok := trailingPlus(cy)
	switch {
	case xok && yok && len(st.Children) == 4:
		u, a := cx[:len(cx)-1], xp.Inner
		v, b := cy[:len(cy)-1], yp.Inner
		cases := []goal{
			newGoal(g.form, appendComp(u, a), appendComp(v, b)),
			newGoal(g.form, appendComp(u, pathexpr.Rep1(a)), appendComp(v, b)),
			newGoal(g.form, appendComp(u, a), appendComp(v, pathexpr.Rep1(b))),
		}
		for k, want := range cases {
			if err := c.expectGoal(st.Children[k], want); err != nil {
				return err
			}
			if err := c.check(st.Children[k], lems); err != nil {
				return err
			}
		}
		stepX, stepY := appendComp(cx, a), appendComp(cy, b)
		ih := lemma{form: g.form, re1: g.xn, re2: g.yn, maxSize: sliceSize(stepX) + sliceSize(stepY)}
		if err := c.expectGoal(st.Children[3], newGoal(g.form, stepX, stepY)); err != nil {
			return err
		}
		return c.check(st.Children[3], lems.with(ih))

	case len(st.Children) == 2 && ((st.StarOnLeft && xok) || (!st.StarOnLeft && yok)):
		var base, stepGoalWant goal
		var ih lemma
		if st.StarOnLeft {
			u, a := cx[:len(cx)-1], xp.Inner
			base = newGoal(g.form, appendComp(u, a), cy)
			stepX := appendComp(cx, a)
			stepGoalWant = newGoal(g.form, stepX, cy)
			ih = lemma{form: g.form, re1: g.xn, re2: g.yn, maxSize: sliceSize(stepX) + sliceSize(cy)}
		} else {
			v, b := cy[:len(cy)-1], yp.Inner
			base = newGoal(g.form, cx, appendComp(v, b))
			stepY := appendComp(cy, b)
			stepGoalWant = newGoal(g.form, cx, stepY)
			ih = lemma{form: g.form, re1: g.xn, re2: g.yn, maxSize: sliceSize(cx) + sliceSize(stepY)}
		}
		if err := c.expectGoal(st.Children[0], base); err != nil {
			return err
		}
		if err := c.check(st.Children[0], lems); err != nil {
			return err
		}
		if err := c.expectGoal(st.Children[1], stepGoalWant); err != nil {
			return err
		}
		return c.check(st.Children[1], lems.with(ih))
	}
	return c.fail(st, "goal shape does not match the induction schema")
}

// expectGoal verifies a child derives exactly the expected goal.
func (c *checker) expectGoal(child *Step, want goal) error {
	if child == nil {
		return fmt.Errorf("checkproof: missing subproof for %s", want.String())
	}
	got := stepGoal(child)
	if got.form != want.form || got.xn != want.xn || got.yn != want.yn {
		return fmt.Errorf("checkproof: subproof derives %s, expected %s", got.String(), want.String())
	}
	return nil
}
