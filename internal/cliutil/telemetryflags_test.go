package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestStatsPromWritesExposition(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.prom")
	var tf TelemetryFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tf.Register(fs)
	if err := fs.Parse([]string{"-stats-prom", out}); err != nil {
		t.Fatal(err)
	}
	set, err := tf.Open()
	if err != nil {
		t.Fatal(err)
	}
	if tf.Registry() == nil {
		t.Fatal("-stats-prom alone did not enable the registry")
	}
	set.Counter("prover.goals").Add(5)
	var stderr bytes.Buffer
	if err := tf.Close(&stderr, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheus(data); err != nil {
		t.Errorf("exposition invalid: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), "apt_prover_goals_total 5") {
		t.Errorf("exposition lacks the counter:\n%s", data)
	}
	// Without -stats nothing goes to stderr.
	if stderr.Len() != 0 {
		t.Errorf("stderr not empty: %s", stderr.String())
	}
}

func TestStatsPromBadPath(t *testing.T) {
	var tf TelemetryFlags
	tf.PromPath = filepath.Join(t.TempDir(), "no", "such", "dir", "m.prom")
	if _, err := tf.Open(); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := tf.Close(&stderr, nil); err == nil {
		t.Error("Close swallowed the unwritable -stats-prom path")
	}
}

// TestStatsSummaryMemoHitRate: the -stats summary derives the proof memo's
// hit rate from the engine's memo counters, and leaves the line out when a
// run never consulted the memo.
func TestStatsSummaryMemoHitRate(t *testing.T) {
	summary := func(counters map[string]int64) string {
		t.Helper()
		var tf TelemetryFlags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		tf.Register(fs)
		if err := fs.Parse([]string{"-stats"}); err != nil {
			t.Fatal(err)
		}
		set, err := tf.Open()
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range counters {
			set.Counter(name).Add(n)
		}
		var stderr bytes.Buffer
		if err := tf.Close(&stderr, nil); err != nil {
			t.Fatal(err)
		}
		return stderr.String()
	}
	got := summary(map[string]int64{"engine.memo_hits": 3, "engine.memo_misses": 1, "prover.goals": 9})
	if want := "proof memo hit rate: 75.0% (3 of 4 lookups)\n"; !strings.Contains(got, want) {
		t.Errorf("summary lacks %q:\n%s", want, got)
	}
	if got := summary(map[string]int64{"prover.goals": 9}); strings.Contains(got, "hit rate") {
		t.Errorf("summary without memo counters shows a hit rate:\n%s", got)
	}
}
