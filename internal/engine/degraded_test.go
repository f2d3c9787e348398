package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The interrupt guard distinguishes three degradation paths — per-query
// timeout, request deadline, outright cancellation — and each must book
// itself on exactly one counter pair (registry counter, RequestTrace
// reason).  A regression that merges or cross-wires them makes
// "why are my answers Maybe" undiagnosable from metrics, so every sub-test
// asserts its own counter moved and the other two stayed at zero.

// degradedHarness runs one batch under a request's Set, as a server does,
// and returns the telemetry counters and per-reason trace counts.
func degradedHarness(t *testing.T, ctx context.Context, queries []core.Query, perQuery time.Duration) (map[string]int64, [telemetry.NumDegradeReasons]int64) {
	t.Helper()
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	tc := telemetry.NewTraceContext()
	rt := telemetry.NewRequestTrace(tc)
	eng := New(Options{Workers: 2, Telemetry: tel})
	batch := telemetry.New(tel.Metrics(), rt).Under(tc.SpanID)
	for i, out := range eng.BatchTimeout(ctx, queries, perQuery, batch) {
		if out.Result != core.Maybe {
			t.Errorf("results[%d] = %v, want Maybe", i, out.Result)
		}
	}
	return tel.Metrics().Snapshot().Counters, rt.DegradedCounts()
}

func TestDegradedCountersSplitByReason(t *testing.T) {
	t.Run("query_timeout", func(t *testing.T) {
		// heavyQuery's search makes well over 64 prove calls (the poll
		// stride), so a 1ns per-query timeout trips mid-search —
		// deterministically a timeout, never a deadline or cancel.
		counters, deg := degradedHarness(t, context.Background(),
			[]core.Query{heavyQuery()}, time.Nanosecond)
		if counters["engine.degraded.query_timeout"] != 1 ||
			counters["engine.degraded.request_deadline"] != 0 ||
			counters["engine.degraded.canceled"] != 0 {
			t.Errorf("telemetry counters = %v, want only query_timeout at 1", counters)
		}
		if deg != [telemetry.NumDegradeReasons]int64{telemetry.DegradeQueryTimeout: 1} {
			t.Errorf("trace degraded counts = %v, want only query_timeout at 1", deg)
		}
	})

	t.Run("request_deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		queries := []core.Query{disjointQuery(), aliasQuery()}
		counters, deg := degradedHarness(t, ctx, queries, 0)
		if counters["engine.degraded.request_deadline"] != 2 ||
			counters["engine.degraded.query_timeout"] != 0 ||
			counters["engine.degraded.canceled"] != 0 {
			t.Errorf("telemetry counters = %v, want only request_deadline at 2", counters)
		}
		if deg != [telemetry.NumDegradeReasons]int64{telemetry.DegradeRequestDeadline: 2} {
			t.Errorf("trace degraded counts = %v, want only request_deadline at 2", deg)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		queries := []core.Query{disjointQuery(), aliasQuery(), disjointQuery()}
		counters, deg := degradedHarness(t, ctx, queries, 0)
		if counters["engine.degraded.canceled"] != 3 ||
			counters["engine.degraded.query_timeout"] != 0 ||
			counters["engine.degraded.request_deadline"] != 0 {
			t.Errorf("telemetry counters = %v, want only canceled at 3", counters)
		}
		if deg != [telemetry.NumDegradeReasons]int64{telemetry.DegradeCanceled: 3} {
			t.Errorf("trace degraded counts = %v, want only canceled at 3", deg)
		}
	})
}
