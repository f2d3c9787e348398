package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

func access(path, field string, write bool) core.Access {
	return core.Access{Handle: "h", Path: pathexpr.MustParse(path), Field: field, IsWrite: write}
}

// disjointQuery is provably independent (A1), aliasQuery provably
// dependent; interleaving them makes result ordering observable.
func disjointQuery() core.Query {
	return core.Query{S: access("L", "val", true), T: access("R", "val", false)}
}

func aliasQuery() core.Query {
	return core.Query{S: access("L.R", "val", true), T: access("L.R", "val", false)}
}

func TestBatchOrderingMatchesQueries(t *testing.T) {
	var queries []core.Query
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			queries = append(queries, disjointQuery())
		} else {
			queries = append(queries, aliasQuery())
		}
	}
	eng := New(WorkloadWindows()[0], Options{Workers: 8})
	results := eng.Batch(context.Background(), queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, out := range results {
		want := core.Yes
		if i%2 == 0 {
			want = core.No
		}
		if out.Result != want {
			t.Errorf("results[%d] = %v, want %v: ordering broken", i, out.Result, want)
		}
	}
}

func TestBatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := []core.Query{disjointQuery(), aliasQuery(), disjointQuery()}
	eng := New(WorkloadWindows()[0], Options{Workers: 4})
	results := eng.Batch(ctx, queries)
	for i, out := range results {
		if out.Result != core.Maybe {
			t.Errorf("results[%d] = %v, want Maybe (canceled queries must degrade conservatively)", i, out.Result)
		}
		if !strings.Contains(out.Reason, "batch canceled") {
			t.Errorf("results[%d] reason = %q, want a cancellation reason", i, out.Reason)
		}
		if want := core.Classify(queries[i].S, queries[i].T); out.Kind != want {
			t.Errorf("results[%d] kind = %v, want %v (kind is structural, computable without searching)", i, out.Kind, want)
		}
	}
	if got := eng.Stats().Canceled; got != int64(len(queries)) {
		t.Errorf("Stats().Canceled = %d, want %d", got, len(queries))
	}
}

// The heavy query's proof search fails after well over 64 prove calls
// (the interrupt poll stride), so an expired deadline is guaranteed to be
// observed mid-search.
func heavyQuery() core.Query {
	return core.Query{
		S: access("(L|R).(L|R).(L|R).N*", "val", true),
		T: access("(L|R).(L|R).(L|R).N+", "val", false),
	}
}

func TestQueryTimeoutDegradesToMaybe(t *testing.T) {
	eng := New(WorkloadWindows()[0], Options{Workers: 1, QueryTimeout: time.Nanosecond})
	results := eng.Batch(context.Background(), []core.Query{heavyQuery()})
	if results[0].Result != core.Maybe {
		t.Fatalf("timed-out query answered %v, want Maybe", results[0].Result)
	}
	if !strings.Contains(results[0].Reason, "query timeout") {
		t.Errorf("reason = %q, want a timeout reason", results[0].Reason)
	}
	if got := eng.Stats().Timeouts; got != 1 {
		t.Errorf("Stats().Timeouts = %d, want 1", got)
	}
}

// A timeout must never flip a decided verdict: cheap provable queries in
// the same batch still answer No even under an absurd deadline, because
// their searches finish before the poll stride observes the expiry.
func TestQueryTimeoutLeavesFastVerdictsAlone(t *testing.T) {
	eng := New(WorkloadWindows()[0], Options{Workers: 1, QueryTimeout: time.Nanosecond})
	results := eng.Batch(context.Background(), []core.Query{disjointQuery(), heavyQuery(), disjointQuery()})
	for _, i := range []int{0, 2} {
		if results[i].Result != core.No {
			t.Errorf("results[%d] = %v, want No (fast queries decide before the deadline is polled)", i, results[i].Result)
		}
	}
	if results[1].Result != core.Maybe {
		t.Errorf("results[1] = %v, want Maybe", results[1].Result)
	}
}

func TestCanonicalSwapSharesMemo(t *testing.T) {
	q := disjointQuery()
	swapped := swapQuery(q)
	eng := New(WorkloadWindows()[0], Options{Workers: 1})
	results := eng.Batch(context.Background(), []core.Query{q, swapped})
	if results[0].Result != core.No || results[1].Result != core.No {
		t.Fatalf("verdicts = %v/%v, want No/No", results[0].Result, results[1].Result)
	}
	if results[0].Kind != core.Flow || results[1].Kind != core.Anti {
		t.Errorf("kinds = %v/%v, want flow/anti (swap exchanges reader and writer)", results[0].Kind, results[1].Kind)
	}
	st := eng.Memo().Stats()
	if st.Lookups != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("memo stats = %+v, want exactly one search shared by the swapped pair", st)
	}
}

func TestMemoAndDFACacheSharedAcrossBatch(t *testing.T) {
	queries := Workload(5, 0)
	eng := New(WorkloadWindows()[0], Options{Workers: 4})
	eng.Batch(context.Background(), queries)
	st := eng.Stats()
	if st.Batches != 1 || st.Queries != int64(len(queries)) {
		t.Errorf("batch counters = %d/%d, want 1/%d", st.Batches, st.Queries, len(queries))
	}
	if memo := eng.Memo().Stats(); memo.Hits == 0 {
		t.Error("memo recorded no hits on a workload built around swapped and repeated goals")
	} else if rate := memo.HitRate(); rate <= 0.5 {
		t.Errorf("memo hit rate = %.2f, want > 0.5 on the shared workload", rate)
	}
	if eng.DFACache().Stats().Hits == 0 {
		t.Error("shared DFA cache recorded no hits across the axiom windows")
	}
}

func TestNewClampsWorkers(t *testing.T) {
	eng := New(WorkloadWindows()[0], Options{})
	if eng.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1 for the zero Options", eng.Workers())
	}
	if got := New(WorkloadWindows()[0], Options{Workers: -3}).Workers(); got != 1 {
		t.Errorf("Workers() = %d, want 1 for negative width", got)
	}
}

func TestEngineTelemetryCounters(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	eng := New(WorkloadWindows()[0], Options{Workers: 2, Telemetry: tel})
	eng.Batch(context.Background(), []core.Query{disjointQuery(), swapQuery(disjointQuery())})
	snap := tel.Metrics().Snapshot()
	if snap.Counters["engine.batches"] != 1 {
		t.Errorf("engine.batches = %d, want 1", snap.Counters["engine.batches"])
	}
	if snap.Counters["engine.queries"] != 2 {
		t.Errorf("engine.queries = %d, want 2", snap.Counters["engine.queries"])
	}
	if snap.Counters["engine.memo_hits"]+snap.Counters["engine.memo_misses"] == 0 {
		t.Error("memo telemetry counters never moved")
	}
}

// A batch context whose deadline has already passed degrades every query
// to Maybe with a deadline reason, counted as a deadline expiry — not as a
// query timeout or a cancellation.  This is the per-request deadline path a
// serving process leans on.
func TestRequestDeadlineDegradesToMaybe(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	queries := []core.Query{disjointQuery(), heavyQuery()}
	eng := New(WorkloadWindows()[0], Options{Workers: 2})
	for i, out := range eng.BatchTimeout(ctx, queries, 0) {
		if out.Result != core.Maybe {
			t.Errorf("results[%d] = %v, want Maybe", i, out.Result)
		}
		if !strings.Contains(out.Reason, "request deadline expired") {
			t.Errorf("results[%d] reason = %q, want a deadline reason", i, out.Reason)
		}
	}
	st := eng.Stats()
	if st.DeadlineExpired != int64(len(queries)) || st.Timeouts != 0 || st.Canceled != 0 {
		t.Errorf("stats = %d deadline / %d timeouts / %d canceled, want %d / 0 / 0",
			st.DeadlineExpired, st.Timeouts, st.Canceled, len(queries))
	}
}
