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
// itself on exactly one counter triple (Stats field, telemetry counter,
// RequestTrace reason).  A regression that merges or cross-wires them makes
// "why are my answers Maybe" undiagnosable from metrics, so every sub-test
// asserts its own counter moved and the other two stayed at zero.

// degradedHarness runs one batch with a trace scope attached and returns
// the engine stats, telemetry counters, and per-reason trace counts.
func degradedHarness(t *testing.T, ctx context.Context, queries []core.Query, perQuery time.Duration) (Stats, map[string]int64, [telemetry.NumDegradeReasons]int64) {
	t.Helper()
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	tc := telemetry.NewTraceContext()
	rt := telemetry.NewRequestTrace(tc)
	ctx = telemetry.WithTraceScope(ctx, rt, tc.SpanID)
	eng := New(Options{Workers: 2, Telemetry: tel})
	for i, out := range eng.BatchTimeout(ctx, queries, perQuery) {
		if out.Result != core.Maybe {
			t.Errorf("results[%d] = %v, want Maybe", i, out.Result)
		}
	}
	return eng.Stats(), tel.Metrics().Snapshot().Counters, rt.DegradedCounts()
}

func TestDegradedCountersSplitByReason(t *testing.T) {
	t.Run("query_timeout", func(t *testing.T) {
		// heavyQuery's search makes well over 64 prove calls (the poll
		// stride), so a 1ns per-query timeout trips mid-search —
		// deterministically a timeout, never a deadline or cancel.
		st, counters, deg := degradedHarness(t, context.Background(),
			[]core.Query{heavyQuery()}, time.Nanosecond)
		if st.Timeouts != 1 || st.DeadlineExpired != 0 || st.Canceled != 0 {
			t.Errorf("stats = %d/%d/%d timeout/deadline/canceled, want 1/0/0",
				st.Timeouts, st.DeadlineExpired, st.Canceled)
		}
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
		st, counters, deg := degradedHarness(t, ctx, queries, 0)
		if st.DeadlineExpired != 2 || st.Timeouts != 0 || st.Canceled != 0 {
			t.Errorf("stats = %d/%d/%d timeout/deadline/canceled, want 0/2/0",
				st.Timeouts, st.DeadlineExpired, st.Canceled)
		}
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
		st, counters, deg := degradedHarness(t, ctx, queries, 0)
		if st.Canceled != 3 || st.Timeouts != 0 || st.DeadlineExpired != 0 {
			t.Errorf("stats = %d/%d/%d timeout/deadline/canceled, want 0/0/3",
				st.Timeouts, st.DeadlineExpired, st.Canceled)
		}
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
