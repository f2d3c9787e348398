package automata

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pathexpr"
)

func sharedTestExprs() []pathexpr.Expr {
	srcs := []string{"L", "R", "N", "L.R", "(L|R)", "(L|R)+", "N*", "L.(L|R)*", "(L|R|N)+", "ε"}
	out := make([]pathexpr.Expr, len(srcs))
	for i, s := range srcs {
		out[i] = pathexpr.MustParse(s)
	}
	return out
}

// TestSharedCacheMatchesUncachedDFA: the cache's memoized language
// decisions must agree with the same decisions computed directly on freshly
// compiled DFAs — on the first (compiling) call and on the memoized repeat.
func TestSharedCacheMatchesUncachedDFA(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(0, 0, 0)
	exprs := sharedTestExprs()
	for _, x := range exprs {
		for _, y := range exprs {
			dx, dy := MustCompile(x, alpha), MustCompile(y, alpha)
			for _, tc := range []struct {
				name   string
				cached func() (bool, error)
				want   bool
			}{
				{"Includes", func() (bool, error) { return c.Includes(pathexpr.Intern(x), pathexpr.Intern(y), alpha) }, dx.Includes(dy)},
				{"Disjoint", func() (bool, error) { return c.Disjoint(pathexpr.Intern(x), pathexpr.Intern(y), alpha) }, dx.Intersect(dy).IsEmpty()},
				{"Equivalent", func() (bool, error) { return c.Equivalent(pathexpr.Intern(x), pathexpr.Intern(y), alpha) }, dx.Equivalent(dy)},
			} {
				for pass := 0; pass < 2; pass++ {
					got, err := tc.cached()
					if err != nil || got != tc.want {
						t.Errorf("%s(%v, %v) pass %d = (%v, %v), uncached DFA says %v",
							tc.name, x, y, pass, got, err, tc.want)
					}
				}
			}
		}
	}
}

// TestSharedCacheConcurrentLookups hammers one cache from many goroutines;
// correctness is checked by the decisions and the race detector, economy by
// the compile counter staying near the distinct-key count.
func TestSharedCacheConcurrentLookups(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(0, 4, 0)
	exprs := sharedTestExprs()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, e := range exprs {
					d, err := c.DFA(pathexpr.Intern(e), alpha)
					if err != nil || d == nil {
						errs <- fmt.Errorf("DFA(%v): %v", e, err)
						return
					}
				}
			}
			ok, err := c.Disjoint(node("L"), node("R"), alpha)
			if err != nil || !ok {
				errs <- fmt.Errorf("Disjoint(L,R) = %v, %v", ok, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Lookups == 0 || st.Hits == 0 {
		t.Fatalf("stats show no traffic: %+v", st)
	}
	// Racing goroutines may compile the same key more than once (benign),
	// but steady-state reuse must dominate: far fewer compiles than lookups.
	if st.Compiles >= st.Lookups/10 {
		t.Errorf("%d compiles for %d lookups: cache not absorbing repeat traffic", st.Compiles, st.Lookups)
	}
	if c.Len() == 0 || c.Len() > len(exprs)+2 {
		t.Errorf("Len() = %d, want about %d distinct entries", c.Len(), len(exprs))
	}
	if rate := float64(st.Hits) / float64(st.Lookups); rate <= 0.5 {
		t.Errorf("hit rate = %.2f, want > 0.5", rate)
	}
}

// TestSharedCacheEpochEviction: a full shard is emptied before the next
// insert and every dropped entry is counted.
func TestSharedCacheEpochEviction(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(0, 1, 4) // one shard, four entries
	exprs := sharedTestExprs()
	for _, e := range exprs {
		if _, err := c.DFA(pathexpr.Intern(e), alpha); err != nil {
			t.Fatalf("DFA(%v): %v", e, err)
		}
	}
	if c.DFAEvictions() == 0 {
		t.Errorf("no evictions after inserting %d entries into a 4-entry shard", len(exprs))
	}
	if got := c.Len(); got > 4 {
		t.Errorf("Len() = %d, want <= the per-shard cap of 4", got)
	}
	// Evicted entries must simply recompile, not fail.
	if ok, err := c.Disjoint(node("L"), node("R"), alpha); err != nil || !ok {
		t.Errorf("Disjoint(L,R) after eviction = %v, %v", ok, err)
	}
}

// TestSharedCacheStateLimit: the configured subset-construction limit is
// enforced and counted, and a failed compilation is not cached.
func TestSharedCacheStateLimit(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(1, 0, 0)
	big := pathexpr.MustParse("(L|R).(L|R).(L|R).(L|R)")
	if _, err := c.DFA(pathexpr.Intern(big), alpha); err == nil {
		t.Fatal("want a state-limit error from a 1-state limit")
	}
	if st := c.Stats(); st.LimitFailures == 0 {
		t.Errorf("stats did not count the limit failure: %+v", st)
	}
	if c.Len() != 0 {
		t.Errorf("failed compilation was cached: Len() = %d", c.Len())
	}
}

// TestSharedCacheOpsMemoBounded is the regression test for the long-lived-
// process leak: epoch eviction must bound the decision memo (`ops`) exactly
// like the DFA map.  A server answering millions of distinct decisions would
// otherwise grow the memo without bound even though every DFA is evicted on
// schedule.
func TestSharedCacheOpsMemoBounded(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	const cap = 4
	c := NewSharedCache(0, 1, cap) // one shard so the cap binds immediately
	exprs := sharedTestExprs()
	for _, x := range exprs {
		for _, y := range exprs {
			if _, err := c.Includes(pathexpr.Intern(x), pathexpr.Intern(y), alpha); err != nil {
				t.Fatalf("Includes(%v, %v): %v", x, y, err)
			}
			if _, err := c.Disjoint(pathexpr.Intern(x), pathexpr.Intern(y), alpha); err != nil {
				t.Fatalf("Disjoint(%v, %v): %v", x, y, err)
			}
			if _, err := c.Equivalent(pathexpr.Intern(x), pathexpr.Intern(y), alpha); err != nil {
				t.Fatalf("Equivalent(%v, %v): %v", x, y, err)
			}
		}
	}
	if got := c.Len(); got > cap {
		t.Errorf("Len() = %d after the sweep, want <= the per-shard cap of %d", got, cap)
	}
	if got := c.OpsLen(); got > cap {
		t.Errorf("OpsLen() = %d after the sweep, want <= the per-shard cap of %d", got, cap)
	}
	if c.OpsEvictions() == 0 {
		t.Error("OpsEvictions() = 0 after driving hundreds of decisions past a 4-entry cap")
	}
	if c.DFAEvictions() == 0 {
		t.Error("DFAEvictions() = 0 after compiling every expression into a 4-entry shard")
	}
	// Evicted decisions recompute to the same answers.
	if ok, err := c.Disjoint(node("L"), node("R"), alpha); err != nil || !ok {
		t.Errorf("Disjoint(L,R) after ops eviction = %v, %v", ok, err)
	}
	// An unbounded cache (cap 0) never evicts, whatever its size.
	u := NewSharedCache(0, 1, 0)
	for _, x := range exprs {
		for _, y := range exprs {
			if _, err := u.Includes(pathexpr.Intern(x), pathexpr.Intern(y), alpha); err != nil {
				t.Fatalf("Includes(%v, %v): %v", x, y, err)
			}
		}
	}
	if n := u.DFAEvictions() + u.OpsEvictions(); n != 0 {
		t.Errorf("unbounded cache evicted %d entries", n)
	}
}

// node parses and interns src, the form every cache lookup takes.
func node(src string) *pathexpr.Node { return pathexpr.Intern(pathexpr.MustParse(src)) }
