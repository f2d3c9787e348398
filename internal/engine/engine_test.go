package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// testAxioms is the leaf-linked binary tree set every hand-built query
// below carries (the workload's full window).
var testAxioms = WorkloadWindows()[0]

func access(path, field string, write bool) core.Access {
	return core.Access{Handle: "h", Path: pathexpr.MustParse(path), Field: field, IsWrite: write}
}

// disjointQuery is provably independent (A1), aliasQuery provably
// dependent; interleaving them makes result ordering observable.
func disjointQuery() core.Query {
	return core.Query{Axioms: testAxioms, S: access("L", "val", true), T: access("R", "val", false)}
}

func aliasQuery() core.Query {
	return core.Query{Axioms: testAxioms, S: access("L.R", "val", true), T: access("L.R", "val", false)}
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
	eng := New(Options{Workers: 8})
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
	eng, count := newCountedEngine(Options{Workers: 4})
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
	if got := count("engine.degraded.canceled"); got != int64(len(queries)) {
		t.Errorf("engine.degraded.canceled = %d, want %d", got, len(queries))
	}
}

// The heavy query's proof search fails after well over 64 prove calls
// (the interrupt poll stride), so an expired deadline is guaranteed to be
// observed mid-search.
func heavyQuery() core.Query {
	return core.Query{
		Axioms: testAxioms,
		S:      access("(L|R).(L|R).(L|R).N*", "val", true),
		T:      access("(L|R).(L|R).(L|R).N+", "val", false),
	}
}

func TestQueryTimeoutDegradesToMaybe(t *testing.T) {
	eng, count := newCountedEngine(Options{Workers: 1, QueryTimeout: time.Nanosecond})
	results := eng.Batch(context.Background(), []core.Query{heavyQuery()})
	if results[0].Result != core.Maybe {
		t.Fatalf("timed-out query answered %v, want Maybe", results[0].Result)
	}
	if !strings.Contains(results[0].Reason, "query timeout") {
		t.Errorf("reason = %q, want a timeout reason", results[0].Reason)
	}
	if got := count("engine.degraded.query_timeout"); got != 1 {
		t.Errorf("engine.degraded.query_timeout = %d, want 1", got)
	}
}

// A timeout must never flip a decided verdict: cheap provable queries in
// the same batch still answer No even under an absurd deadline, because
// their searches finish before the poll stride observes the expiry.
func TestQueryTimeoutLeavesFastVerdictsAlone(t *testing.T) {
	eng := New(Options{Workers: 1, QueryTimeout: time.Nanosecond})
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

// newCountedEngine builds an engine from opts booking into a fresh
// registry, and returns a reader of the registry's counters.
func newCountedEngine(opts Options) (*Engine, func(name string) int64) {
	reg := telemetry.NewRegistry()
	opts.Telemetry = telemetry.New(reg, nil)
	return New(opts), func(name string) int64 { return reg.Counter(name).Value() }
}

func TestCanonicalSwapSharesMemo(t *testing.T) {
	q := disjointQuery()
	swapped := q.Swapped()
	eng, count := newCountedEngine(Options{Workers: 1})
	results := eng.Batch(context.Background(), []core.Query{q, swapped})
	if results[0].Result != core.No || results[1].Result != core.No {
		t.Fatalf("verdicts = %v/%v, want No/No", results[0].Result, results[1].Result)
	}
	if results[0].Kind != core.Flow || results[1].Kind != core.Anti {
		t.Errorf("kinds = %v/%v, want flow/anti (swap exchanges reader and writer)", results[0].Kind, results[1].Kind)
	}
	if hits, misses := count("engine.memo_hits"), count("engine.memo_misses"); misses != 1 || hits != 1 {
		t.Errorf("memo hits/misses = %d/%d, want exactly one search shared by the swapped pair", hits, misses)
	}
}

func TestMemoAndDFACacheSharedAcrossBatch(t *testing.T) {
	queries := Workload(5, 0)
	eng, count := newCountedEngine(Options{Workers: 4})
	eng.Batch(context.Background(), queries)
	if b, q := count("engine.batches"), count("engine.queries"); b != 1 || q != int64(len(queries)) {
		t.Errorf("batch counters = %d/%d, want 1/%d", b, q, len(queries))
	}
	if hits := count("engine.memo_hits"); hits == 0 {
		t.Error("memo recorded no hits on a workload built around swapped and repeated goals")
	} else if rate := float64(hits) / float64(hits+count("engine.memo_misses")); rate <= 0.5 {
		t.Errorf("memo hit rate = %.2f, want > 0.5 on the shared workload", rate)
	}
	if count("automata.shared_hits") == 0 {
		t.Error("shared DFA cache recorded no hits across the axiom windows")
	}
}

func TestNewClampsWorkers(t *testing.T) {
	eng := New(Options{})
	if eng.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1 for the zero Options", eng.Workers())
	}
	if got := New(Options{Workers: -3}).Workers(); got != 1 {
		t.Errorf("Workers() = %d, want 1 for negative width", got)
	}
}

func TestEngineTelemetryCounters(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	eng := New(Options{Workers: 2, Telemetry: tel})
	eng.Batch(context.Background(), []core.Query{disjointQuery(), disjointQuery().Swapped()})
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
	eng, count := newCountedEngine(Options{Workers: 2})
	for i, out := range eng.BatchTimeout(ctx, queries, 0, nil) {
		if out.Result != core.Maybe {
			t.Errorf("results[%d] = %v, want Maybe", i, out.Result)
		}
		if !strings.Contains(out.Reason, "request deadline expired") {
			t.Errorf("results[%d] reason = %q, want a deadline reason", i, out.Reason)
		}
	}
	deadline, timeouts, canceled := count("engine.degraded.request_deadline"),
		count("engine.degraded.query_timeout"), count("engine.degraded.canceled")
	if deadline != int64(len(queries)) || timeouts != 0 || canceled != 0 {
		t.Errorf("counters = %d deadline / %d timeouts / %d canceled, want %d / 0 / 0",
			deadline, timeouts, canceled, len(queries))
	}
}

// TestNilAxiomsAnsweredMaybe: a query without an axiom set has nothing to
// be proved under, so the sequential tester and the engine (at one and at
// several workers, where such a query may open a chunk, and under an
// expired query timeout) answer it Maybe with a reason — never a default
// set's verdict, never a panic — and leave every other query's verdict
// alone.
func TestNilAxiomsAnsweredMaybe(t *testing.T) {
	unset := disjointQuery() // provably No under testAxioms
	unset.Axioms = nil
	queries := []core.Query{unset, disjointQuery(), unset}
	check := func(name string, outs []core.Outcome) {
		t.Helper()
		for _, i := range []int{0, 2} {
			if outs[i].Result != core.Maybe || outs[i].Reason != "query carries no axiom set; dependence assumed" {
				t.Errorf("%s: nil-set query %d = %v (%q), want Maybe with the missing-set reason",
					name, i, outs[i].Result, outs[i].Reason)
			}
			if outs[i].Kind != core.Flow {
				t.Errorf("%s: nil-set query %d kind = %v, want flow", name, i, outs[i].Kind)
			}
		}
		if outs[1].Result != core.No {
			t.Errorf("%s: query with a set = %v (%q), want No", name, outs[1].Result, outs[1].Reason)
		}
	}

	tester := core.NewTester(nil, prover.Options{})
	var seq []core.Outcome
	for _, q := range queries {
		seq = append(seq, tester.DepTest(q))
	}
	check("sequential tester", seq)
	for _, workers := range []int{1, 4} {
		check(fmt.Sprintf("engine, %d workers", workers),
			New(Options{Workers: workers}).Batch(context.Background(), queries))
	}
	// An expired per-query timeout relabels searches it cut short, not a
	// query that never searched.
	eng, count := newCountedEngine(Options{Workers: 1, QueryTimeout: time.Nanosecond})
	check("engine, 1ns query timeout", eng.Batch(context.Background(), queries))
	if got := count("engine.degraded.query_timeout"); got != 0 {
		t.Errorf("engine booked %d query timeouts for queries that never searched", got)
	}
}
