package automata

import (
	"errors"
	"testing"

	"repro/internal/pathexpr"
)

// modExpr returns (a.a...a)* with n repetitions: its minimal DFA is a
// counter with n states, so the product of modExpr(p) and modExpr(q) for
// coprime p, q needs p*q states — a controllable blowup that individual
// compilations never see.
func modExpr(t *testing.T, n int) pathexpr.Expr {
	t.Helper()
	src := "("
	for i := 0; i < n; i++ {
		if i > 0 {
			src += "."
		}
		src += "a"
	}
	src += ")*"
	return pathexpr.MustParse(src)
}

// TestCompileLimitAdversarial: the classic subset-construction blowup
// (a|b)*.a.(a|b)^k needs 2^(k+1) DFA states; a tight limit must surface
// ErrStateLimit, and the default limit must absorb it.
func TestCompileLimitAdversarial(t *testing.T) {
	a := NewAlphabet("a", "b")
	e := pathexpr.MustParse("(a|b)*.a.(a|b).(a|b).(a|b)")
	if _, err := CompileLimit(e, a, 8); err == nil {
		t.Fatal("CompileLimit(blowup, 8) succeeded; want ErrStateLimit")
	} else {
		var lim ErrStateLimit
		if !errors.As(err, &lim) {
			t.Fatalf("CompileLimit error %v is not an ErrStateLimit", err)
		}
		if lim.Limit != 8 {
			t.Errorf("ErrStateLimit.Limit = %d, want 8", lim.Limit)
		}
	}
	d, err := Compile(e, a)
	if err != nil {
		t.Fatalf("Compile at the default limit: %v", err)
	}
	if d.NumStates() < 16 {
		t.Errorf("blowup expression minimized to %d states, want ≥ 16", d.NumStates())
	}
}

// TestIntersectStateBudget is the regression test for the unbounded product
// construction: two automata that are individually tiny but whose product
// exceeds the budget must return ErrStateLimit — and a retry under a larger
// budget must succeed with the true language.
func TestIntersectStateBudget(t *testing.T) {
	a := NewAlphabet("a")
	d5 := MustCompile(modExpr(t, 5), a)
	d7 := MustCompile(modExpr(t, 7), a)
	if n := d5.NumStates(); n > 6 {
		t.Fatalf("(a^5)* compiled to %d states; the test wants tiny operands", n)
	}

	if _, err := d5.IntersectLimit(d7, 16); err == nil {
		t.Fatal("IntersectLimit(16) succeeded on a 35-state product; want ErrStateLimit")
	} else {
		var lim ErrStateLimit
		if !errors.As(err, &lim) {
			t.Fatalf("IntersectLimit error %v is not an ErrStateLimit", err)
		}
	}

	// The same product under an adequate budget: L((a^5)*) ∩ L((a^7)*) =
	// L((a^35)*).
	prod, err := d5.IntersectLimit(d7, 64)
	if err != nil {
		t.Fatalf("IntersectLimit(64): %v", err)
	}
	want := MustCompile(modExpr(t, 35), a)
	if ok, err := prod.EquivalentLimit(want, 0); err != nil || !ok {
		t.Errorf("product language != (a^35)*: %v, %v", ok, err)
	}

	// IncludesLimit and EquivalentLimit ride the same product and must obey
	// the same budget.
	if _, err := d5.IncludesLimit(d7, 16); err == nil {
		t.Error("IncludesLimit(16) ignored the state budget")
	}
	if _, err := d5.EquivalentLimit(d7, 16); err == nil {
		t.Error("EquivalentLimit(16) ignored the state budget")
	}
}

// TestStateBudgetDegradesThroughCaches: when the shared cache's budget is
// blown mid-decision the caller gets an error (which the prover maps to
// Maybe) — never a fabricated boolean that could become an unsound No —
// the failure is counted, and it is NOT memoized, so the same decision
// under a roomier cache succeeds.
func TestStateBudgetDegradesThroughCaches(t *testing.T) {
	alpha := NewAlphabet("a")
	x, y := pathexpr.Intern(modExpr(t, 5)), pathexpr.Intern(modExpr(t, 7))

	tight := NewSharedCache(16, 0, 0)
	if v, err := tight.Disjoint(x, y, alpha); err == nil {
		t.Fatalf("tight-budget Disjoint returned (%v, nil); want an error, anything else risks an unsound No", v)
	}
	if st := tight.Stats(); st.LimitFailures == 0 {
		t.Errorf("limit failure not counted: %+v", st)
	}
	if n := tight.OpsLen(); n != 0 {
		t.Errorf("failed decision was memoized: OpsLen() = %d", n)
	}

	roomy := NewSharedCache(0, 0, 0)
	got, err := roomy.Disjoint(x, y, alpha)
	if err != nil {
		t.Fatalf("default-budget Disjoint: %v", err)
	}
	// Both languages contain ε (and a^35), so they are not disjoint.
	if got {
		t.Error("Disjoint((a^5)*, (a^7)*) = true; both accept ε")
	}

	// A prover's private cache is the one-shard case of the same type and
	// wraps the same budgeted product.
	priv := NewSharedCache(16, 1, 0)
	if v, err := priv.Disjoint(x, y, alpha); err == nil {
		t.Fatalf("tight-budget private-cache Disjoint returned (%v, nil); want an error", v)
	}
	if st := priv.Stats(); st.LimitFailures == 0 {
		t.Errorf("private cache did not count the limit failure: %+v", st)
	}
}

// TestComplementDoesNotAliasTables is the regression test for the
// trans-slice aliasing bug: Complement must deep-copy the transition table,
// because the receiver's table may be shared with a preloaded artifact and
// must stay frozen either way.
func TestComplementDoesNotAliasTables(t *testing.T) {
	d := compile(t, "a.b*")
	c := d.Complement()
	if len(c.trans) != len(d.trans) {
		t.Fatalf("complement has %d transitions, original %d", len(c.trans), len(d.trans))
	}
	if len(d.trans) > 0 && &c.trans[0] == &d.trans[0] {
		t.Fatal("Complement aliases the receiver's transition table")
	}
	// Behavioral check: double complement restores the language, and the
	// original is untouched by the round trip.
	cc := c.Complement()
	for _, word := range [][]string{nil, {"a"}, {"a", "b"}, {"b"}, {"a", "b", "b"}} {
		if got, want := cc.Accepts(word), d.Accepts(word); got != want {
			t.Errorf("double complement Accepts(%v) = %v, original says %v", word, got, want)
		}
	}
	if !d.Accepts([]string{"a", "b"}) || d.Accepts([]string{"b"}) {
		t.Error("original DFA changed after Complement")
	}
}
