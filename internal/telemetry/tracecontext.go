package telemetry

import (
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// This file is the span half of the telemetry layer: W3C Trace Context
// (traceparent) propagation and the one span recorder, RequestTrace.  The
// process-lifetime Registry answers "how is the server doing"; a
// RequestTrace answers "what happened to *this* run".  A retaining trace
// keeps a request's span tree for the flight recorder; a streaming trace
// writes each ended span and each per-step Event as a JSONL line (the
// CLIs' -trace-json) and keeps nothing.  Events exist only on the stream,
// so a retained tree holds spans alone.
//
// The "nil is off" discipline holds throughout: a nil *RequestTrace hands
// out no-op spans and NoteDegraded no-ops.  Which trace a layer records
// into, and under which parent, travels in the *Set it is handed (set.go),
// never in a context.

// TraceID is a 128-bit W3C trace id.
type TraceID [16]byte

// SpanID is a 64-bit W3C span (parent) id.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// TraceContext is one W3C traceparent: the trace the request belongs to,
// the caller's span, and the trace flags (bit 0 = sampled).
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// NewTraceContext mints a fresh sampled trace context with random ids.
// (math/rand/v2's global generator is fine here: trace ids need uniqueness,
// not unpredictability.)
func NewTraceContext() TraceContext {
	var tc TraceContext
	putUint64(tc.TraceID[0:8], rand.Uint64())
	putUint64(tc.TraceID[8:16], rand.Uint64())
	tc.SpanID = newSpanID()
	tc.Flags = 1
	return tc
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], rand.Uint64())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>").  ok is false for a malformed header,
// an unsupported version, or all-zero ids; callers then mint their own
// context rather than joining a broken trace.
func ParseTraceparent(h string) (tc TraceContext, ok bool) {
	// Version 00 defines exactly four fields; anything longer (even a
	// well-formed "-extra" suffix) is rejected and the caller mints a
	// fresh context instead of joining a trace it can't fully parse.
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(h[3:35])); err != nil {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(h[36:52])); err != nil {
		return TraceContext{}, false
	}
	var fl [1]byte
	if _, err := hex.Decode(fl[:], []byte(h[53:55])); err != nil {
		return TraceContext{}, false
	}
	tc.Flags = fl[0]
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		return TraceContext{}, false
	}
	return tc, true
}

// Traceparent renders the context as a W3C traceparent header value.
func (tc TraceContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, tc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, tc.SpanID[:])
	b = append(b, '-')
	const hexdigits = "0123456789abcdef"
	b = append(b, hexdigits[tc.Flags>>4], hexdigits[tc.Flags&0xf])
	return string(b)
}

// DegradeReason says why a query's answer degraded toward Maybe — the
// three cases the engine's interrupt guard distinguishes.
type DegradeReason uint8

const (
	// DegradeQueryTimeout: the per-query proof-search timeout expired.
	DegradeQueryTimeout DegradeReason = iota
	// DegradeRequestDeadline: the whole-request deadline passed.
	DegradeRequestDeadline
	// DegradeCanceled: the batch context was canceled outright.
	DegradeCanceled

	// NumDegradeReasons sizes per-reason arrays.
	NumDegradeReasons
)

// String returns the reason's metric-label spelling.
func (r DegradeReason) String() string {
	switch r {
	case DegradeQueryTimeout:
		return "query_timeout"
	case DegradeRequestDeadline:
		return "request_deadline"
	case DegradeCanceled:
		return "canceled"
	}
	return "unknown"
}

// maxRequestSpans bounds one request's span tree so a pathological batch
// (thousands of prover calls) cannot hold unbounded memory in the flight
// recorder; spans beyond the cap are counted, not kept.
const maxRequestSpans = 4096

// SpanRecord is one completed span of a request's tree, JSON-ready for the
// flight recorder and /debug/flightrecorder.
type SpanRecord struct {
	Name string `json:"name"`
	// ID and Parent are hex span ids; the root span's Parent is the
	// remote caller's span id (from traceparent) or empty.
	ID      string `json:"span_id"`
	Parent  string `json:"parent_id,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// Attrs holds the attributes passed to ActiveSpan.End.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// RequestTrace records spans, and a request's degradation profile.  It is
// safe for concurrent use (engine workers and the prover finish spans in
// parallel); a nil *RequestTrace is a valid, disabled recorder.
type RequestTrace struct {
	tc    TraceContext
	start time.Time
	// out is a streaming trace's line encoder; nil for a retaining trace.
	out *TraceWriter

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int

	degMu    sync.Mutex
	degraded [NumDegradeReasons]int64
}

// NewRequestTrace starts a retaining trace under the given trace context
// (the client's traceparent, or a freshly minted context for headerless
// requests).
func NewRequestTrace(tc TraceContext) *RequestTrace {
	return &RequestTrace{tc: tc, start: time.Now()}
}

// NewStreamingTrace returns a trace writing through w (nil when w is nil).
func NewStreamingTrace(w *TraceWriter) *RequestTrace {
	if w == nil {
		return nil
	}
	return &RequestTrace{out: w}
}

// Streaming reports whether Event records anything.  Hot paths guard
// expensive attribute construction (goal rendering) behind it.
func (rt *RequestTrace) Streaming() bool { return rt != nil && rt.out != nil }

// Event streams one per-step line (a rule application, a DFA compile)
// parented under parent; a no-op unless Streaming.
func (rt *RequestTrace) Event(name string, parent SpanID, attrs ...Attr) {
	if rt.Streaming() {
		rt.out.line(name, SpanID{}, parent, -1, attrs)
	}
}

// TraceIDString returns the hex trace id ("" when disabled).
func (rt *RequestTrace) TraceIDString() string {
	if rt == nil {
		return ""
	}
	return rt.tc.TraceID.String()
}

// StartSpan opens a span parented under parent (use the incoming
// TraceContext.SpanID for the root).  The returned ActiveSpan is a value;
// it must be End()ed to appear in the trace.
func (rt *RequestTrace) StartSpan(name string, parent SpanID) ActiveSpan {
	if rt == nil {
		return ActiveSpan{}
	}
	return rt.StartSpanAt(name, parent, time.Now())
}

// StartSpanAt is StartSpan for a region that began at start, for callers
// that read the clock anyway (to feed a latency histogram).
func (rt *RequestTrace) StartSpanAt(name string, parent SpanID, start time.Time) ActiveSpan {
	if rt == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{rt: rt, name: name, id: newSpanID(), parent: parent, start: start}
}

// NoteDegraded records one query degraded toward Maybe for the given
// reason.
func (rt *RequestTrace) NoteDegraded(r DegradeReason) {
	if rt == nil || r >= NumDegradeReasons {
		return
	}
	rt.degMu.Lock()
	rt.degraded[r]++
	rt.degMu.Unlock()
}

// DegradedCounts returns the per-reason degraded-query counts.
func (rt *RequestTrace) DegradedCounts() [NumDegradeReasons]int64 {
	if rt == nil {
		return [NumDegradeReasons]int64{}
	}
	rt.degMu.Lock()
	defer rt.degMu.Unlock()
	return rt.degraded
}

// DegradedTotal returns the total count of degraded queries.
func (rt *RequestTrace) DegradedTotal() int64 {
	var total int64
	for _, n := range rt.DegradedCounts() {
		total += n
	}
	return total
}

// Spans returns a copy of the completed spans, in completion order.
func (rt *RequestTrace) Spans() []SpanRecord {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]SpanRecord, len(rt.spans))
	copy(out, rt.spans)
	return out
}

// DroppedSpans reports how many spans the per-request cap discarded.
func (rt *RequestTrace) DroppedSpans() int {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dropped
}

func (rt *RequestTrace) record(rec SpanRecord) {
	rt.mu.Lock()
	if len(rt.spans) >= maxRequestSpans {
		rt.dropped++
	} else {
		rt.spans = append(rt.spans, rec)
	}
	rt.mu.Unlock()
}

// ActiveSpan is one in-flight span of a RequestTrace.  The zero ActiveSpan
// (and any span from a nil trace) is a valid no-op.
type ActiveSpan struct {
	rt     *RequestTrace
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
}

// ID returns the span's id, to parent child spans under it.
func (s ActiveSpan) ID() SpanID { return s.id }

// End completes the span with its duration and attributes: recorded in
// the tree, or written as a line on a streaming trace.
func (s ActiveSpan) End(attrs ...Attr) {
	if s.rt == nil {
		return
	}
	dur := time.Since(s.start).Microseconds()
	if s.rt.out != nil {
		s.rt.out.line(s.name, s.id, s.parent, dur, attrs)
		return
	}
	rec := SpanRecord{
		Name:    s.name,
		ID:      s.id.String(),
		StartUS: s.start.Sub(s.rt.start).Microseconds(),
		DurUS:   dur,
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			rec.Attrs[a.Key] = a.value()
		}
	}
	s.rt.record(rec)
}

// value unboxes the attribute for JSON rendering (flight recorder spans).
func (a Attr) value() any {
	switch a.kind {
	case attrString:
		return a.s
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.i != 0
	}
	return nil
}
