package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceparentParseFormatRoundTrip(t *testing.T) {
	const h = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a valid header", h)
	}
	if tc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id = %s", tc.TraceID)
	}
	if tc.SpanID.String() != "b7ad6b7169203331" {
		t.Errorf("span id = %s", tc.SpanID)
	}
	if tc.Flags != 1 {
		t.Errorf("flags = %#x, want 1", tc.Flags)
	}
	if got := tc.Traceparent(); got != h {
		t.Errorf("round trip = %q, want %q", got, h)
	}

	minted := NewTraceContext()
	if minted.TraceID.IsZero() || minted.SpanID.IsZero() {
		t.Error("minted context has zero ids")
	}
	back, ok := ParseTraceparent(minted.Traceparent())
	if !ok || back != minted {
		t.Errorf("minted context does not round-trip: %v vs %v", back, minted)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range []string{
		"",
		"garbage",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // unsupported version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",  // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x", // trailing junk
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // bad separator
	} {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
	// Version 00 followed by a proper extension separator is still a parse
	// of the leading fields per the spec's forward-compat rule... except
	// version 00 defines no extra fields, so we reject it (callers mint a
	// fresh context, the safe behavior either way).
	if _, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); ok {
		t.Error("version 00 with trailing fields accepted")
	}
}

func TestRequestTraceSpanTree(t *testing.T) {
	tc := NewTraceContext()
	rt := NewRequestTrace(tc)
	root := rt.StartSpan("root", tc.SpanID)
	child := rt.StartSpan("child", root.ID())
	child.End(String("k", "v"), Int("n", 7), Bool("b", true), Float64("f", 1.5))
	root.End()

	spans := rt.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Errorf("completion order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent = %q, root id = %q", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != tc.SpanID.String() {
		t.Errorf("root parent = %q, want the remote span %q", spans[1].Parent, tc.SpanID)
	}
	attrs := spans[0].Attrs
	if attrs["k"] != "v" || attrs["n"] != int64(7) || attrs["b"] != true || attrs["f"] != 1.5 {
		t.Errorf("attrs = %#v", attrs)
	}
	if rt.DroppedSpans() != 0 {
		t.Errorf("dropped = %d", rt.DroppedSpans())
	}
}

func TestRequestTraceSpanCap(t *testing.T) {
	rt := NewRequestTrace(NewTraceContext())
	for i := 0; i < maxRequestSpans+10; i++ {
		rt.StartSpan("s", SpanID{}).End()
	}
	if got := len(rt.Spans()); got != maxRequestSpans {
		t.Errorf("spans = %d, want cap %d", got, maxRequestSpans)
	}
	if got := rt.DroppedSpans(); got != 10 {
		t.Errorf("dropped = %d, want 10", got)
	}
}

// TestStreamingTrace pins the two kinds of one recorder: a streaming trace
// writes each ended span (span_id, parent_id, dur_us) and each Event as a
// line and keeps nothing, with no cap; a retaining trace drops Events.
func TestStreamingTrace(t *testing.T) {
	var buf bytes.Buffer
	rt := NewStreamingTrace(NewTraceWriter(&buf))
	if !rt.Streaming() {
		t.Fatal("streaming trace reports not streaming")
	}
	root := rt.StartSpan("root", SpanID{})
	child := rt.StartSpan("child", root.ID())
	rt.Event("step", child.ID(), Int("n", 1))
	child.End(String("k", "v"))
	root.End()
	for i := 0; i < maxRequestSpans+10; i++ {
		rt.StartSpan("s", SpanID{}).End()
	}
	if len(rt.Spans()) != 0 || rt.DroppedSpans() != 0 {
		t.Errorf("streaming trace retained %d spans, dropped %d", len(rt.Spans()), rt.DroppedSpans())
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3+maxRequestSpans+10 {
		t.Fatalf("got %d lines, want %d", len(lines), 3+maxRequestSpans+10)
	}
	var got [3]map[string]any
	for i := range got {
		if err := json.Unmarshal([]byte(lines[i]), &got[i]); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
	}
	ev, ch, rs := got[0], got[1], got[2]
	if ev["ev"] != "step" || ev["parent_id"] != child.ID().String() || ev["n"] != float64(1) {
		t.Errorf("event line = %v", ev)
	}
	if _, ok := ev["span_id"]; ok {
		t.Errorf("event line carries a span_id: %v", ev)
	}
	if _, ok := ev["dur_us"]; ok {
		t.Errorf("event line carries dur_us: %v", ev)
	}
	if ch["ev"] != "child" || ch["span_id"] != child.ID().String() || ch["parent_id"] != root.ID().String() || ch["k"] != "v" {
		t.Errorf("child span line = %v", ch)
	}
	if _, ok := ch["dur_us"]; !ok {
		t.Errorf("span line lacks dur_us: %v", ch)
	}
	if _, ok := rs["parent_id"]; ok || rs["span_id"] != root.ID().String() {
		t.Errorf("root span line = %v", rs)
	}

	ret := NewRequestTrace(NewTraceContext())
	if ret.Streaming() {
		t.Error("retaining trace reports streaming")
	}
	ret.Event("step", SpanID{}, Int("n", 1))
	if len(ret.Spans()) != 0 {
		t.Errorf("retaining trace recorded an event: %v", ret.Spans())
	}
}

func TestRequestTraceDegradedCounts(t *testing.T) {
	rt := NewRequestTrace(NewTraceContext())
	rt.NoteDegraded(DegradeQueryTimeout)
	rt.NoteDegraded(DegradeCanceled)
	rt.NoteDegraded(DegradeCanceled)
	got := rt.DegradedCounts()
	want := [NumDegradeReasons]int64{DegradeQueryTimeout: 1, DegradeCanceled: 2}
	if got != want {
		t.Errorf("counts = %v, want %v", got, want)
	}
	if rt.DegradedTotal() != 3 {
		t.Errorf("total = %d, want 3", rt.DegradedTotal())
	}
}

func TestNilRequestTraceIsNoOp(t *testing.T) {
	var rt *RequestTrace
	sp := rt.StartSpan("x", SpanID{})
	sp.End(Int("n", 1)) // must not panic
	rt.NoteDegraded(DegradeCanceled)
	if rt.Spans() != nil || rt.DegradedTotal() != 0 || rt.TraceIDString() != "" {
		t.Error("nil RequestTrace is not a clean no-op")
	}
}

func TestDegradeReasonStrings(t *testing.T) {
	want := []string{"query_timeout", "request_deadline", "canceled"}
	for r := DegradeReason(0); r < NumDegradeReasons; r++ {
		if r.String() != want[r] {
			t.Errorf("reason %d = %q, want %q", r, r.String(), want[r])
		}
		if strings.ContainsAny(r.String(), ` "\`) {
			t.Errorf("reason %q unusable as a Prometheus label", r.String())
		}
	}
	if DegradeReason(99).String() != "unknown" {
		t.Error("out-of-range reason should stringify as unknown")
	}
}
