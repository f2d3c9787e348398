package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// deterministicRegistry builds a registry whose exposition is byte-stable:
// counters, gauges and histogram buckets are all functions of the fixed
// observations.
func deterministicRegistry() *Registry {
	r := NewRegistry()
	r.Counter("engine.queries").Add(42)
	r.Counter("serve.requests").Add(7)
	// A labeled family next to an unlabeled one whose name extends its
	// base: the two must render as separate families, each under one
	// HELP/TYPE pair.
	r.Counter(Labeled("route.hedge", "outcome", "won")).Add(2)
	r.Counter(Labeled("route.hedge", "outcome", "lost")).Add(1)
	r.Counter("route.hedges").Add(3)
	r.GaugeFunc("serve.inflight", func() int64 { return 5 })
	h := r.Histogram("serve.request_ns")
	for _, v := range []int64{0, 1, 5, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := deterministicRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("golden exposition invalid: %v\n%s", err, buf.Bytes())
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden (run with -update if intended):\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}

	// Scrape stability: a second render of the same registry is
	// byte-identical (the sorted output the golden test depends on).
	var again bytes.Buffer
	r := deterministicRegistry()
	r.WritePrometheus(&again) //nolint:errcheck
	var again2 bytes.Buffer
	r.WritePrometheus(&again2) //nolint:errcheck
	if !bytes.Equal(again.Bytes(), again2.Bytes()) {
		t.Error("successive scrapes of an unchanged registry differ")
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry wrote %q (err %v)", buf.Bytes(), err)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"engine.queries":     "engine_queries",
		"a-b c/d":            "a_b_c_d",
		"9lives":             "_9lives",
		"ok_name:sub":        "ok_name:sub",
		"automata.compiles2": "automata_compiles2",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := PromEscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("PromEscapeLabel = %q", got)
	}
	if got := Labeled("route.backend_up", "backend", `h"1`); got != `route.backend_up{backend="h\"1"}` {
		t.Errorf("Labeled = %q", got)
	}
}

func TestValidatePrometheusCatchesBreakage(t *testing.T) {
	for name, body := range map[string]string{
		"sample without TYPE":  "apt_x_total 1\n",
		"bad TYPE":             "# TYPE apt_x wobble\napt_x 1\n",
		"bad metric name":      "# TYPE 1x counter\n",
		"bad value":            "# TYPE apt_x counter\napt_x one\n",
		"unterminated label":   "# TYPE apt_x counter\napt_x{l=\"v 1\n",
		"le not increasing":    "# TYPE apt_h histogram\napt_h_bucket{le=\"5\"} 1\napt_h_bucket{le=\"3\"} 2\napt_h_bucket{le=\"+Inf\"} 2\napt_h_sum 3\napt_h_count 2\n",
		"bucket count shrinks": "# TYPE apt_h histogram\napt_h_bucket{le=\"1\"} 5\napt_h_bucket{le=\"2\"} 3\napt_h_bucket{le=\"+Inf\"} 5\napt_h_sum 3\napt_h_count 5\n",
		"no +Inf bucket":       "# TYPE apt_h histogram\napt_h_bucket{le=\"1\"} 1\napt_h_sum 1\napt_h_count 1\n",
		"missing _sum":         "# TYPE apt_h histogram\napt_h_bucket{le=\"+Inf\"} 1\napt_h_count 1\n",
		"count != +Inf":        "# TYPE apt_h histogram\napt_h_bucket{le=\"+Inf\"} 2\napt_h_sum 1\napt_h_count 3\n",
		"TYPE after samples":   "# TYPE apt_x counter\napt_x 1\n# TYPE apt_x gauge\n",
		"second TYPE":          "# TYPE apt_x counter\n# TYPE apt_x counter\napt_x 1\n",
		"second HELP":          "# HELP apt_x One.\n# TYPE apt_x counter\napt_x 1\n# HELP apt_x Two.\n",
		"repeated sample":      "# TYPE apt_x counter\napt_x 1\napt_x 2\n",
		"repeated label set":   "# TYPE apt_x counter\napt_x{a=\"1\",b=\"2\"} 1\napt_x{b=\"2\",a=\"1\"} 1\n",
	} {
		if err := ValidatePrometheus([]byte(body)); err == nil {
			t.Errorf("%s: validator accepted\n%s", name, body)
		}
	}
	good := "# HELP apt_x Help text.\n# TYPE apt_x counter\napt_x{label=\"va\\\"lue\"} 12 1700000000\n"
	if err := ValidatePrometheus([]byte(good)); err != nil {
		t.Errorf("validator rejected valid exposition: %v", err)
	}
}

// TestSnapshotWriteTextSections: the text summary has one section per
// instrument kind, so a latency appears once, under histograms.
func TestSnapshotWriteTextSections(t *testing.T) {
	r := deterministicRegistry()
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	for _, want := range []string{"counters:", "gauges:", "histograms:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("WriteText lacks the %s section:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "maxima:") {
		t.Errorf("WriteText has a maxima: section; a maximum is a histogram's Max:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), "serve.request_ns"); n != 1 {
		t.Errorf("WriteText lists serve.request_ns %d times, want once:\n%s", n, buf.String())
	}
}

// TestGaugeFunc: a gauge reads its owner at every snapshot, registering the
// name again replaces the function, and the function runs outside the
// registry's lock — it may itself resolve instruments.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := int64(1)
	r.GaugeFunc("serve.inflight", func() int64 { return v })
	v = 4
	if got := r.Snapshot().Gauges["serve.inflight"]; got != 4 {
		t.Errorf("gauge = %d, want the owner's current 4", got)
	}
	r.GaugeFunc("serve.inflight", func() int64 { return r.Counter("serve.requests").Value() + 10 })
	if got := r.Snapshot().Gauges["serve.inflight"]; got != 10 {
		t.Errorf("gauge = %d after re-registration, want the new function's 10", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "apt_serve_inflight 10\n") {
		t.Errorf("exposition lacks the gauge:\n%s", buf.String())
	}
	var nilReg *Registry
	nilReg.GaugeFunc("x", func() int64 { return 1 }) // disabled: no-op
	if g := nilReg.Snapshot().Gauges; len(g) != 0 {
		t.Errorf("nil registry snapshot has gauges %v", g)
	}
}
