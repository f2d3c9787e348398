package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Count once: every counted quantity has one counter, owned by its
// instance (an engine, a DFA cache, a proof memo, an admission controller),
// which feeds the registry counter of the same name from the same Add.  An
// instance's Stats therefore count with telemetry off, equal the registry
// when the instance is alone on its telemetry set, and sum to the registry
// when several instances share one.

// countedInstances is one engine with the cache and memo it borrows, plus
// an admission controller fed into serve.requests, .completed, .shed and
// .refused_draining.
type countedInstances struct {
	eng  *Engine
	dfas *automata.SharedCache
	memo *core.Memo
	adm  *admit.Controller
}

// newCounted builds the instances on tel (nil: telemetry off).  The cache
// and memo are capped small so the eviction counters move too, and the
// cache's 8-state limit is tight enough that some compilations fail.
func newCounted(tel *telemetry.Set) *countedInstances {
	dfas := automata.NewSharedCache(8, 1, 8).SetTelemetry(tel)
	memo := core.NewMemo(1, 8, tel)
	return &countedInstances{
		eng:  New(WorkloadWindows()[0], Options{Workers: 1, Telemetry: tel, DFACache: dfas, Memo: memo}),
		dfas: dfas,
		memo: memo,
		adm:  admit.New(1, 0).Feed(tel, "serve"),
	}
}

// drive moves every counter: a seeded workload (lookups, hits, compiles,
// state-limit failures, memo hits and misses, evictions), a timed-out, a canceled, and a
// deadline-expired batch (the three degraded reasons), and one admitted
// and completed, one shed, and one refused-while-draining request.
func (c *countedInstances) drive(t *testing.T, seed int64) {
	t.Helper()
	c.eng.Batch(context.Background(), Workload(seed, 60))
	c.eng.BatchTimeout(context.Background(), []core.Query{heavyQuery()}, time.Nanosecond)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	c.eng.Batch(canceled, []core.Query{disjointQuery()})
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c.eng.Batch(expired, []core.Query{aliasQuery(), disjointQuery()})

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
}

// counts reads the instances' own values under their registry names.
func (c *countedInstances) counts() map[string]int64 {
	st, ms, cs := c.eng.Stats(), c.memo.Stats(), c.dfas.Stats()
	accepted, completed, shed, refused := c.adm.Counts()
	return map[string]int64{
		"engine.batches":                       st.Batches,
		"engine.queries":                       st.Queries,
		"engine.degraded.query_timeout":        st.Timeouts,
		"engine.degraded.request_deadline":     st.DeadlineExpired,
		"engine.degraded.canceled":             st.Canceled,
		"engine.memo_hits":                     ms.Hits,
		"engine.memo_misses":                   ms.Misses,
		"engine.memo_evictions":                ms.Evictions,
		"automata.shared_lookups":              int64(cs.Lookups),
		"automata.shared_hits":                 int64(cs.Hits),
		"automata.shared_compiles":             int64(cs.Compiles),
		"automata.shared_state_limit_failures": int64(cs.LimitFailures),
		"automata.shared_evictions":            c.dfas.DFAEvictions() + c.dfas.OpsEvictions(),
		"serve.requests":                       accepted,
		"serve.completed":                      completed,
		"serve.shed":                           shed,
		"serve.refused_draining":               refused,
	}
}

func TestCountOnce(t *testing.T) {
	// Telemetry on, one instance per set: the reference values.
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	one := newCounted(tel)
	one.drive(t, 1)
	want := one.counts()
	for name, v := range want {
		if v == 0 {
			t.Errorf("%s never moved; the drive must exercise every counter", name)
		}
	}

	t.Run("nil set still counts", func(t *testing.T) {
		off := newCounted(nil)
		off.drive(t, 1)
		for name, v := range off.counts() {
			if v != want[name] {
				t.Errorf("%s = %d with telemetry off, %d with it on", name, v, want[name])
			}
		}
	})

	t.Run("one instance equals the registry", func(t *testing.T) {
		reg := tel.Metrics().Snapshot().Counters
		for name, v := range want {
			if reg[name] != v {
				t.Errorf("%s: registry %d, instance %d", name, reg[name], v)
			}
		}
	})

	t.Run("shared set sums the instances", func(t *testing.T) {
		shared := telemetry.New(telemetry.NewRegistry(), nil)
		a, b := newCounted(shared), newCounted(shared)
		a.drive(t, 1)
		b.drive(t, 2)
		reg := shared.Metrics().Snapshot().Counters
		ca, cb := a.counts(), b.counts()
		for name := range want {
			if reg[name] != ca[name]+cb[name] {
				t.Errorf("%s: registry %d, instances %d + %d", name, reg[name], ca[name], cb[name])
			}
		}
	})
}
