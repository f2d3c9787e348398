package prover

import (
	"fmt"
	"testing"

	"repro/internal/pathexpr"
)

// WatchGoals installs a search hook that checks every goal any prover
// enters against the component sequences it carries: each side node, and
// every suffix and prefix node of its cuts, must be the interned
// concatenation of its components, the goal's key must equal the key built
// by interning the reassembled sides, and its rendering from the nodes (a
// proof's theorem) must equal its rendering from the components.  Every
// field of its sides must lie in the search's alphabet: case C reads a
// prefix's size class off the expression, which agrees with the prefix's
// automaton only when no field falls outside the alphabet.  It returns the
// number of goals checked so far and a function that removes the hook.
func WatchGoals(t testing.TB) (checked func() int, restore func()) {
	goals := 0
	testGoalHook = func(r *run, g goal, cx, cy cuts) {
		goals++
		check := func(what string, got *pathexpr.Node, comps []pathexpr.Expr) {
			t.Helper()
			if want := pathexpr.Intern(pathexpr.FromComponents(comps)); got != want {
				t.Errorf("%s of %s carries node %q, its components intern to %q", what, g, got, want)
			}
		}
		check("left side", g.xn, g.x)
		check("right side", g.yn, g.y)
		want := goalKey{form: g.form, x: pathexpr.InternID(expr(g.x)), y: pathexpr.InternID(expr(g.y))}
		if g.key() != want {
			t.Errorf("key of %s is %v, interning its reassembled sides gives %v", g, g.key(), want)
		}
		if got := g.theorem(); got != g.String() {
			t.Errorf("goal %s renders from its nodes as %s", g, got)
		}
		for _, f := range pathexpr.Fields(g.xn.Expr(), g.yn.Expr()) {
			if !r.alpha.Contains(f) {
				t.Errorf("goal %s has field %s outside its search's alphabet %q", g, f, r.alpha.Key())
			}
		}
		for side, c := range map[string]cuts{"left": cx, "right": cy} {
			if c.at == nil {
				continue
			}
			n := len(c.comps)
			for i := 0; i <= n; i++ {
				check(fmt.Sprintf("%s suffix %d", side, i), c.suffix(i), c.comps[n-i:])
				check(fmt.Sprintf("%s prefix %d", side, i), c.prefix(i), c.comps[:i])
			}
		}
	}
	return func() int { return goals }, func() { testGoalHook = nil }
}

// WordsCongruent exposes the congruence check behind DefinitelyAliased.
func (p *Prover) WordsCongruent(w1, w2 []string) bool { return p.wordsCongruent(w1, w2) }

// WatchFilter installs a hook that decides every direct check the summary
// filter answered alone through the prover's SharedCache, in both
// orientations, and fails the test if either would have discharged the
// goal.  It returns the numbers of filtered inclusion and equivalence
// checks seen so far and a function that removes the hook.
func WatchFilter(t testing.TB) (filtered func() (incl, equiv int), restore func()) {
	var n [2]int // inclusion, equivalence
	testFilterHook = func(r *run, equiv bool, x, y, re1, re2 *pathexpr.Node) {
		decide := r.p.dfas.Includes
		if equiv {
			decide = r.p.dfas.Equivalent
			n[1]++
		} else {
			n[0]++
		}
		for _, fact := range [][2]*pathexpr.Node{{re1, re2}, {re2, re1}} {
			ok1, err1 := decide(x, fact[0], r.alpha)
			ok2, err2 := decide(y, fact[1], r.alpha)
			if err1 == nil && err2 == nil && ok1 && ok2 {
				t.Errorf("filter rejected (%s, %s) against (%s, %s) (equiv %v), which the language layer accepts",
					x, y, fact[0], fact[1], equiv)
			}
		}
	}
	return func() (int, int) { return n[0], n[1] }, func() { testFilterHook = nil }
}

// RootGoalStrings returns a top-level query's theorem as ProveNodes renders
// it (from the sides' nodes) and as its root goal renders from its
// components.
func RootGoalStrings(form Form, x, y pathexpr.Expr) (theorem, rendered string) {
	g := rootGoal(form, pathexpr.Intern(x).Simplified(), pathexpr.Intern(y).Simplified())
	return g.theorem(), g.String()
}
