//go:build !race

package engine

import (
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// TestWarmHitAllocationBudget is the allocation-regression guard for the
// interned-key caches: once every layer is warm, a cache hit must not
// allocate.  Gated out under the race detector, whose instrumentation adds
// allocations of its own (`make race` runs the whole tree with -race).
func TestWarmHitAllocationBudget(t *testing.T) {
	x, y, a := benchInternExprs()
	xn, yn := pathexpr.Intern(x), pathexpr.Intern(y)

	c := automata.NewSharedCache(0, 0, 0)
	if _, err := c.Disjoint(xn, yn, a); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := c.DFA(xn, a); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("warm SharedCache.DFA hit allocates %.1f per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := c.Disjoint(xn, yn, a); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("warm SharedCache ops-memo hit allocates %.1f per call, want 0", got)
	}

	// The prover's decision path: a per-search account over the shared
	// cache, deciding a memoized node pair.
	ac := c.Account()
	if _, err := ac.Includes(xn, yn, a); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := ac.Includes(xn, yn, a); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("warm Account.Includes hit allocates %.1f per call, want 0", got)
	}
	if ac.Compiles != 0 {
		t.Errorf("account charged %d compiles over DFAs the cache already held", ac.Compiles)
	}

	m := core.NewMemo(0, 0, nil)
	axioms := WorkloadWindows()[0]
	prv := prover.New(axioms, prover.Options{})
	m.Prove(prv, axioms.ID(), prover.SameSrc, x, y)
	if got := testing.AllocsPerRun(200, func() {
		m.Prove(prv, axioms.ID(), prover.SameSrc, x, y)
	}); got > 0 {
		t.Errorf("warm proof-memo hit allocates %.1f per call, want 0", got)
	}

	if got := testing.AllocsPerRun(200, func() {
		core.CanonicalGoalKey(prover.SameSrc, x, y)
	}); got > 0 {
		t.Errorf("warm CanonicalGoalKey allocates %.1f per call, want 0", got)
	}
}
