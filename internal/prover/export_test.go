package prover

import (
	"fmt"
	"testing"

	"repro/internal/pathexpr"
)

// WatchGoals installs a search hook that checks every goal any prover
// enters against the component sequences it carries: each side node, and
// every suffix and prefix node of its cuts, must be the interned
// concatenation of its components, and the goal's key must equal the key
// built by interning the reassembled sides.  It returns the number of goals
// checked so far and a function that removes the hook.
func WatchGoals(t testing.TB) (checked func() int, restore func()) {
	goals := 0
	testGoalHook = func(g goal, cx, cy *cuts) {
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
		for side, c := range map[string]*cuts{"left": cx, "right": cy} {
			if c == nil {
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
