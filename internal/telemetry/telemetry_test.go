package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("c") != c {
		t.Error("Counter not idempotent")
	}

	h := r.Histogram("h")
	for _, v := range []int64{1, 2, 3, 100, -7} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 5 || s.Sum != 106 || s.Min != 0 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 106.0/5 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 > s.P99 || s.P99 > 127 {
		t.Errorf("quantiles p50=%d p99=%d", s.P50, s.P99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != 8000 || s.Min != 0 || s.Max != 999 {
		t.Errorf("concurrent summary = %+v", s)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var set *Set
	var reg *Registry
	var tw *TraceWriter
	set.Counter("x").Add(1)
	set.Histogram("x").Observe(1)
	set.Trace().Event("ev", SpanID{}, Int("a", 1))
	set.Trace().StartSpan("ev", SpanID{}).End()
	if set.Enabled() || set.Trace().Streaming() {
		t.Error("nil set reports enabled")
	}
	if New(nil, nil) != nil {
		t.Error("New(nil, nil) is not the nil Set")
	}
	if reg.Counter("x") != nil || reg.Histogram("x") != nil {
		t.Error("nil registry returned live instruments")
	}
	tw.Emit("ev")
	if NewStreamingTrace(tw) != nil || tw.Err() != nil {
		t.Error("nil trace writer misbehaves")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Emit("plain")
	tw.Emit("attrs",
		String("s", `quote " and \ slash`),
		Int("i", -3),
		Int64("i64", 1<<40),
		Float64("f", 1.5),
		Float64("nan", nanFloat()),
		Bool("yes", true),
		Bool("no", false),
	)
	sp := NewStreamingTrace(tw).StartSpan("span", SpanID{})
	time.Sleep(time.Millisecond)
	sp.End(String("k", "v"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var lastSeq float64
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		for _, k := range []string{"ts_us", "seq", "ev"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing %q", i, k)
			}
		}
		if seq := m["seq"].(float64); seq <= lastSeq {
			t.Errorf("seq not increasing: %v after %v", seq, lastSeq)
		} else {
			lastSeq = seq
		}
	}
	var attrs map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &attrs); err != nil {
		t.Fatal(err)
	}
	if attrs["s"] != `quote " and \ slash` || attrs["i"] != float64(-3) ||
		attrs["f"] != 1.5 || attrs["nan"] != nil || attrs["yes"] != true || attrs["no"] != false {
		t.Errorf("attr round-trip failed: %v", attrs)
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &span); err != nil {
		t.Fatal(err)
	}
	if span["ev"] != "span" || span["k"] != "v" || span["span_id"] != sp.ID().String() {
		t.Errorf("span event wrong: %v", span)
	}
	if _, ok := span["parent_id"]; ok {
		t.Errorf("root span carries parent_id: %v", span)
	}
	if dur, ok := span["dur_us"].(float64); !ok || dur < 500 {
		t.Errorf("span dur_us = %v, want ≥ 500µs", span["dur_us"])
	}
}

func nanFloat() float64 {
	z := 0.0
	return z / z
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceWriterErr(t *testing.T) {
	tw := NewTraceWriter(failWriter{})
	tw.Emit("ev")
	if tw.Err() == nil {
		t.Error("write error not recorded")
	}
}

func TestSnapshotWriteTextAndRatio(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Counter("lookups").Add(4)
	r.Histogram("depth").Observe(7)
	r.Histogram("q_ns").Observe(1500)
	snap := r.Snapshot()
	if rate, ok := snap.Ratio("hits", "lookups"); !ok || rate != 0.75 {
		t.Errorf("Ratio = %v %v", rate, ok)
	}
	if _, ok := snap.Ratio("hits", "absent"); ok {
		t.Error("Ratio with absent denominator reported ok")
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"hits", "lookups", "depth", "q_ns", "counters:", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
}

func TestPhases(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	tel := New(reg, NewStreamingTrace(NewTraceWriter(&buf)))
	ph := NewPhases(tel)
	var inner *Set
	if err := ph.Run("parse", func(set *Set) error {
		inner = set
		set.Trace().StartSpan("parse.work", set.Parent()).End()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if inner.Metrics() != reg || inner.Trace() != tel.Trace() || inner.Parent().IsZero() {
		t.Errorf("phase Set = %+v, want the timer's registry and trace under the phase span", inner)
	}
	wantErr := errors.New("boom")
	if err := ph.Run("analyze", func(*Set) error { return wantErr }); err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	if tm := ph.Timings(); len(tm) != 2 || tm[0].Name != "parse" || tm[1].Name != "analyze" || tm[0].Dur < 0 || tm[1].Dur < 0 {
		t.Errorf("timings = %v", tm)
	}
	if !strings.Contains(ph.Summary(), "parse") || !strings.Contains(ph.Summary(), "total") {
		t.Errorf("summary = %q", ph.Summary())
	}
	if !strings.Contains(buf.String(), `"phase":"analyze"`) {
		t.Errorf("trace missing phase event: %s", buf.String())
	}
	// The work a phase runs sits under the phase's span.
	if want := `"parent_id":"` + inner.Parent().String() + `"`; !strings.Contains(buf.String(), want) {
		t.Errorf("no line parented under the parse phase (%s): %s", want, buf.String())
	}
	if h := reg.Snapshot().Hists; len(h) != 0 {
		t.Errorf("phases booked histograms %v; the phase list is their one record", h)
	}

	// A nil-telemetry Phases still records timings.
	ph2 := NewPhases(nil)
	_ = ph2.Run("x", func(set *Set) error {
		if set != nil {
			t.Errorf("nil-telemetry phase handed %+v, want the nil Set", set)
		}
		return nil
	})
	if len(ph2.Timings()) != 1 {
		t.Error("nil-telemetry phases lost timing")
	}
}

// disabledHotPath is the exact call pattern instrumented hot paths use when
// telemetry is off: pre-resolved nil instruments plus a Streaming guard.
func disabledHotPath(tel *Set, c *Counter, h *Histogram) {
	c.Add(1)
	h.Observe(1234)
	rt := tel.Trace()
	rt.Event("event", SpanID{})
	if rt.Streaming() {
		rt.Event("expensive", SpanID{}, String("goal", "never built"))
	}
}

func TestTelemetryDisabledAllocs(t *testing.T) {
	var tel *Set
	c, h := tel.Counter("c"), tel.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		disabledHotPath(tel, c, h)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTelemetryDisabled measures the no-op path; the acceptance
// criterion is 0 allocs/op (run with -benchmem or check the test above).
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tel *Set
	c, h := tel.Counter("c"), tel.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledHotPath(tel, c, h)
	}
}

// BenchmarkTelemetryEnabledCounters is the comparison point: live atomic
// instruments without tracing.
func BenchmarkTelemetryEnabledCounters(b *testing.B) {
	reg := NewRegistry()
	tel := New(reg, nil)
	c, h := tel.Counter("c"), tel.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledHotPath(tel, c, h)
	}
}
