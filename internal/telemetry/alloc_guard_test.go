//go:build !race

package telemetry

import (
	"testing"
	"time"
)

// TestDisabledObservabilityAllocations is the allocation-regression guard
// for the "nil is off" discipline: with tracing disabled (nil *RequestTrace)
// and the flight recorder's floor above the request, the per-query and
// per-request hot paths must not allocate at all.  Gated out under the race
// detector, whose instrumentation adds allocations of its own.
func TestDisabledObservabilityAllocations(t *testing.T) {
	var rt *RequestTrace
	if got := testing.AllocsPerRun(200, func() {
		sp := rt.StartSpan("engine.worker", SpanID{})
		sp.End()
	}); got > 0 {
		t.Errorf("nil RequestTrace StartSpan/End allocates %.1f per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		rt.NoteDegraded(DegradeQueryTimeout)
	}); got > 0 {
		t.Errorf("nil RequestTrace NoteDegraded allocates %.1f per call, want 0", got)
	}

	// The nil Set carries no trace: handing it down a layer (Under) and
	// reading its trace and parent, as every traced layer does on entry,
	// must cost nothing.
	var set *Set
	if got := testing.AllocsPerRun(200, func() {
		if sub := set.Under(SpanID{1}); sub.Trace() != nil || !sub.Parent().IsZero() {
			t.Fatal("nil Set carries a trace")
		}
	}); got > 0 {
		t.Errorf("nil Set Under/Trace/Parent allocates %.1f per call, want 0", got)
	}

	// Flight recorder fast path: non-degraded requests below the floor
	// must return before touching the build callback or any lock.
	f := NewFlightRecorder(1, 8)
	f.Record(time.Second, false, func() *FlightRecord { return &FlightRecord{} })
	if got := testing.AllocsPerRun(200, func() {
		f.Record(time.Microsecond, false, func() *FlightRecord {
			t.Fatal("fast path invoked build")
			return nil
		})
	}); got > 0 {
		t.Errorf("flight-recorder fast path allocates %.1f per call, want 0", got)
	}
	var nilF *FlightRecorder
	if got := testing.AllocsPerRun(200, func() {
		nilF.Record(time.Hour, true, func() *FlightRecord { return &FlightRecord{} })
	}); got > 0 {
		t.Errorf("nil FlightRecorder Record allocates %.1f per call, want 0", got)
	}
}
