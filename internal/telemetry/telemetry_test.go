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

// TestCounterFeed: an instance counter fed into a registry counter books
// both from one Add, and one fed into nothing (telemetry off) still counts.
func TestCounterFeed(t *testing.T) {
	r := NewRegistry()
	var a, b, off Counter
	a.Feed(r.Counter("n")).Add(2)
	b.Feed(r.Counter("n")).Inc()
	off.Feed(nil).Add(5)
	if a.Value() != 2 || b.Value() != 1 || off.Value() != 5 {
		t.Errorf("instances = %d, %d, %d, want 2, 1, 5", a.Value(), b.Value(), off.Value())
	}
	if got := r.Counter("n").Value(); got != 3 {
		t.Errorf("registry = %d, want the instances' sum 3", got)
	}
}

func TestCounterMaxHistogram(t *testing.T) {
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

	m := r.Max("m")
	m.Observe(5)
	m.Observe(2)
	m.Observe(9)
	if m.Value() != 9 {
		t.Errorf("max = %d, want 9", m.Value())
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
	set.Max("x").Observe(1)
	set.Histogram("x").Observe(1)
	set.Emit("ev", Int("a", 1))
	set.Begin("ev").End()
	if set.Enabled() || set.TraceEnabled() {
		t.Error("nil set reports enabled")
	}
	if reg.Counter("x") != nil || reg.Max("x") != nil || reg.Histogram("x") != nil {
		t.Error("nil registry returned live instruments")
	}
	reg.PublishExpvar("never")
	tw.Emit("ev")
	tw.Begin("ev").End()
	if tw.Enabled() || tw.Err() != nil {
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
	sp := tw.Begin("span")
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
	if span["ev"] != "span" || span["k"] != "v" {
		t.Errorf("span event wrong: %v", span)
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
	r.Max("depth").Observe(7)
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
	for _, want := range []string{"hits", "lookups", "depth", "q_ns", "counters:", "maxima:", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
}

func TestPhases(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	tel := New(reg, NewTraceWriter(&buf))
	ph := NewPhases(tel)
	if err := ph.Run("parse", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	if err := ph.Run("analyze", func() error { return wantErr }); err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	if len(ph.Timings()) != 2 || ph.Timings()[0].Name != "parse" {
		t.Errorf("timings = %v", ph.Timings())
	}
	if !strings.Contains(ph.Summary(), "parse") || !strings.Contains(ph.Summary(), "total") {
		t.Errorf("summary = %q", ph.Summary())
	}
	if !strings.Contains(buf.String(), `"phase":"analyze"`) {
		t.Errorf("trace missing phase event: %s", buf.String())
	}
	if reg.Snapshot().Hists["pipeline.parse_ns"].Count != 1 {
		t.Error("phase histogram not recorded")
	}

	// A nil-telemetry Phases still records timings.
	ph2 := NewPhases(nil)
	_ = ph2.Run("x", func() error { return nil })
	if len(ph2.Timings()) != 1 {
		t.Error("nil-telemetry phases lost timing")
	}
}

// disabledHotPath is the exact call pattern instrumented hot paths use when
// telemetry is off: pre-resolved nil instruments plus a TraceEnabled guard.
func disabledHotPath(tel *Set, c *Counter, m *Max, h *Histogram) {
	c.Add(1)
	m.Observe(42)
	h.Observe(1234)
	tel.Emit("event")
	if tel.TraceEnabled() {
		tel.Emit("expensive", String("goal", "never built"))
	}
}

func TestTelemetryDisabledAllocs(t *testing.T) {
	var tel *Set
	c, m, h := tel.Counter("c"), tel.Max("m"), tel.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		disabledHotPath(tel, c, m, h)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTelemetryDisabled measures the no-op path; the acceptance
// criterion is 0 allocs/op (run with -benchmem or check the test above).
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tel *Set
	c, m, h := tel.Counter("c"), tel.Max("m"), tel.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledHotPath(tel, c, m, h)
	}
}

// BenchmarkTelemetryEnabledCounters is the comparison point: live atomic
// instruments without tracing.
func BenchmarkTelemetryEnabledCounters(b *testing.B) {
	reg := NewRegistry()
	tel := New(reg, nil)
	c, m, h := tel.Counter("c"), tel.Max("m"), tel.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledHotPath(tel, c, m, h)
	}
}
