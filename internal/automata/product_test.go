package automata

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pathexpr"
)

// materializedEmpty is the pre-search decision path kept as a reference:
// build the whole product automaton, then ask IsEmpty.
func materializedEmpty(d, o *DFA, limit int, rule pairRule) (bool, error) {
	p, err := d.product(o, limit, rule)
	if err != nil {
		return false, err
	}
	return p.IsEmpty(), nil
}

// materializedEquivalent is equivalence as two materialized inclusions.
func materializedEquivalent(d, o *DFA, limit int) (bool, error) {
	ok, err := materializedEmpty(d, o, limit, ruleDiff)
	if err != nil || !ok {
		return false, err
	}
	return materializedEmpty(o, d, limit, ruleDiff)
}

// sameDecision fails the test unless the two (answer, error) pairs agree:
// both fail with ErrStateLimit at the same limit, or both succeed with the
// same answer.
func sameDecision(t *testing.T, what string, got bool, gotErr error, want bool, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: on the fly err=%v, materialized err=%v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		var g, w ErrStateLimit
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g != w {
			t.Fatalf("%s: on the fly err=%v, materialized err=%v", what, gotErr, wantErr)
		}
		return
	}
	if got != want {
		t.Fatalf("%s: on the fly %v, materialized %v", what, got, want)
	}
}

// TestProductEmptyMatchesMaterialized is the differential test for the
// on-the-fly product search: IncludesLimit, EquivalentLimit and
// SharedCache.Disjoint return the same bool, and fail in the same cases, as
// the product construction followed by IsEmpty.
func TestProductEmptyMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fields := []string{"a", "b", "c"}
	a := NewAlphabet(fields...)
	var yes, no, limited int
	for trial := 0; trial < 300; trial++ {
		e1 := randExpr(rng, fields, 4)
		e2 := randExpr(rng, fields, 4)
		// Unminimized operands keep the products large enough to meet the
		// small budgets.
		d1, err1 := Compile(e1, a)
		d2, err2 := Compile(e2, a)
		if err1 != nil || err2 != nil {
			t.Fatalf("compile %v / %v: %v %v", e1, e2, err1, err2)
		}
		x, y := pathexpr.Intern(e1), pathexpr.Intern(e2)
		for _, limit := range []int{8, 64, 0} {
			what := func(op string) string { return op + "(" + e1.String() + ", " + e2.String() + ")" }

			got, gotErr := d1.IncludesLimit(d2, limit)
			want, wantErr := materializedEmpty(d1, d2, limit, ruleDiff)
			sameDecision(t, what("Includes"), got, gotErr, want, wantErr)
			switch {
			case gotErr != nil:
				limited++
			case got:
				yes++
			default:
				no++
			}

			got, gotErr = d1.EquivalentLimit(d2, limit)
			want, wantErr = materializedEquivalent(d1, d2, limit)
			sameDecision(t, what("Equivalent"), got, gotErr, want, wantErr)

			got, gotErr = NewSharedCache(1, 0).withStateLimit(limit).Disjoint(x, y, a)
			ref := NewSharedCache(1, 0).withStateLimit(limit)
			dx, errx := ref.DFA(x, a)
			dy, erry := ref.DFA(y, a)
			switch {
			case errx != nil:
				want, wantErr = false, errx
			case erry != nil:
				want, wantErr = false, erry
			default:
				var inter *DFA
				if inter, wantErr = dx.IntersectLimit(dy, limit); wantErr == nil {
					want = inter.IsEmpty()
				}
			}
			sameDecision(t, what("Disjoint"), got, gotErr, want, wantErr)
		}
	}
	if yes == 0 || no == 0 || limited == 0 {
		t.Fatalf("differential test has no power: %d included, %d not, %d over budget", yes, no, limited)
	}
}

// TestProductEmptyKeySetPath drives the search's uint64-keyed visited set,
// used when a |d|·|o| bitset would exceed 64·limit bits, against the
// materialized product both over and under budget.
func TestProductEmptyKeySetPath(t *testing.T) {
	a := NewAlphabet("a", "b")
	chain := func(f string) *DFA {
		d, err := Compile(pathexpr.MustParse(strings.TrimSuffix(strings.Repeat(f+".", 200), ".")), a)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	da, db := chain("a"), chain("b")
	// a^200 and b^200 share only the dead state's row and column, so about
	// 400 of their ~40,000 pairs are reachable.
	for _, limit := range []int{300, 500} {
		if s := newPairSet(da.NumStates(), db.NumStates(), limit); s.bits != nil {
			t.Fatalf("limit %d: %d×%d pairs took the bitset; the test wants the key set", limit, da.NumStates(), db.NumStates())
		}
		got, gotErr := da.IncludesLimit(db, limit)
		want, wantErr := materializedEmpty(da, db, limit, ruleDiff)
		sameDecision(t, "Includes", got, gotErr, want, wantErr)
		got, gotErr = da.EquivalentLimit(db, limit)
		want, wantErr = materializedEquivalent(da, db, limit)
		sameDecision(t, "Equivalent", got, gotErr, want, wantErr)
		got, gotErr = da.productEmpty(db, limit, ruleBoth)
		want, wantErr = materializedEmpty(da, db, limit, ruleBoth)
		sameDecision(t, "Disjoint", got, gotErr, want, wantErr)
		if (limit == 300) != (gotErr != nil) {
			t.Fatalf("limit %d: err = %v; the reachable product has about 400 pairs", limit, gotErr)
		}
	}
}

// TestColdDecisionAllocations is the allocation guard for cold language
// decisions: a decision over two compiled DFAs allocates its visited set
// and its pair queue, and no product automaton, pair map or witness word.
func TestColdDecisionAllocations(t *testing.T) {
	a := NewAlphabet("L", "R", "N")
	// L(x) ⊊ L(y), so a two-inclusion equivalence would run both
	// directions.
	x := pathexpr.Intern(pathexpr.MustParse("L.(L|R)*.N.N.N"))
	y := pathexpr.Intern(pathexpr.MustParse("(L|R)*.N.N.N"))
	c := NewSharedCache(1, 0)
	dx, err := c.DFA(x, a)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := c.DFA(y, a)
	if err != nil {
		t.Fatal(err)
	}
	if dx.NumStates() < 5 || dy.NumStates() < 5 {
		t.Fatalf("operands compiled to %d and %d states; the guard wants non-trivial products", dx.NumStates(), dy.NumStates())
	}
	const budget = 2
	cases := []struct {
		name string
		run  func()
	}{
		{"IncludesLimit", func() { dx.IncludesLimit(dy, 0) }},     //nolint:errcheck
		{"EquivalentLimit", func() { dx.EquivalentLimit(dy, 0) }}, //nolint:errcheck
		{"fresh-cache Disjoint", func() {
			// Forget the memoized answer, keeping the compiled DFAs, so every
			// run decides cold.
			clear(c.shards[0].ops)
			c.Disjoint(x, y, a) //nolint:errcheck
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.run); got > budget {
			t.Errorf("%s: %.0f allocations per decision, budget %d", tc.name, got, budget)
		}
	}
}
