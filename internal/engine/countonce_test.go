package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// Count once: every counted quantity is one registry counter, resolved
// once by the instance that books it (an engine, a DFA cache, a proof memo,
// an admission controller) and read only from the registry.

// countedInstances is one engine with the cache and memo it borrows, plus
// an admission controller fed into serve.requests, .completed, .shed and
// .refused_draining.
type countedInstances struct {
	eng  *Engine
	dfas *automata.SharedCache
	memo *core.Memo
	adm  *admit.Controller
}

// newCounted builds the instances on tel.  The cache and memo are capped
// small so the eviction counters move too.
func newCounted(tel *telemetry.Set) *countedInstances {
	dfas := automata.NewSharedCache(1, 8).SetTelemetry(tel)
	memo := core.NewMemo(1, 8, tel)
	return &countedInstances{
		eng:  New(Options{Workers: 1, Telemetry: tel, DFACache: dfas, Memo: memo}),
		dfas: dfas,
		memo: memo,
		adm:  admit.New(1, 0).Feed(tel, "serve"),
	}
}

// drive moves every counter: a seeded workload (lookups, hits, compiles,
// memo hits and misses, evictions), a timed-out, a canceled, and a
// deadline-expired batch (the three degraded reasons), a decision past the
// DFA cache's state budget, and one admitted
// and completed, one shed, and one refused-while-draining request.  It
// returns the figures its own calls fix exactly, under their registry names.
func (c *countedInstances) drive(t *testing.T, seed int64) map[string]int64 {
	t.Helper()
	work := Workload(seed, 60)
	c.eng.Batch(context.Background(), work)
	c.eng.BatchTimeout(context.Background(), []core.Query{heavyQuery()}, time.Nanosecond, nil)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	c.eng.Batch(canceled, []core.Query{disjointQuery()})
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c.eng.Batch(expired, []core.Query{aliasQuery(), disjointQuery()})

	// (L^127)* and (L^131)* each compile within the cache's state budget,
	// but their product needs lcm(127, 131) = 16,637 states, past it.
	cycle := func(n int) *pathexpr.Node {
		return pathexpr.Intern(pathexpr.MustParse("(" + strings.TrimSuffix(strings.Repeat("L.", n), ".") + ")*"))
	}
	if _, err := c.dfas.Disjoint(cycle(127), cycle(131), automata.NewAlphabet("L")); err == nil {
		t.Fatal("a product past the state budget was decided")
	}

	if !c.adm.TryAcquire() || !c.adm.Begin() {
		t.Fatal("admission refused the first request")
	}
	if c.adm.TryAcquire() {
		t.Fatal("admission accepted a request beyond its one slot")
	}
	c.adm.Finish()
	c.adm.Release()
	if err := c.adm.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !c.adm.TryAcquire() || c.adm.Begin() {
		t.Fatal("a draining controller admitted a request")
	}
	c.adm.Release()
	return map[string]int64{
		"engine.batches":                   4,
		"engine.queries":                   int64(len(work)) + 4,
		"engine.degraded.query_timeout":    1,
		"engine.degraded.request_deadline": 2,
		"engine.degraded.canceled":         1,
		"serve.requests":                   1,
		"serve.completed":                  1,
		"serve.shed":                       1,
		"serve.refused_draining":           1,
	}
}

// countedNames are the registry counters the instances book.
var countedNames = []string{
	"engine.batches",
	"engine.queries",
	"engine.degraded.query_timeout",
	"engine.degraded.request_deadline",
	"engine.degraded.canceled",
	"engine.memo_hits",
	"engine.memo_misses",
	"engine.memo_evictions",
	"automata.shared_lookups",
	"automata.shared_hits",
	"automata.shared_compiles",
	"automata.shared_state_limit_failures",
	"automata.shared_evictions",
	"serve.requests",
	"serve.completed",
	"serve.shed",
	"serve.refused_draining",
}

func TestCountOnce(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	done := newCounted(tel).drive(t, 1)
	reg := tel.Metrics().Snapshot().Counters
	for _, name := range countedNames {
		if reg[name] == 0 {
			t.Errorf("%s never moved; the drive must exercise every counter", name)
		}
	}

	// Alone on its set, one instance's registry counters hold exactly what
	// its drive did: no quantity booked twice, none dropped.
	t.Run("one instance equals the registry", func(t *testing.T) {
		for name, want := range done {
			if reg[name] != want {
				t.Errorf("%s: registry %d, drive did %d", name, reg[name], want)
			}
		}
	})
}
