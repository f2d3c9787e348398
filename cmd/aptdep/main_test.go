package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestIndent(t *testing.T) {
	got := indent("a\nb\n")
	if got != "    a\n    b\n" {
		t.Errorf("indent = %q", got)
	}
	if indent("") != "" {
		t.Error("indent of empty string")
	}
	if !strings.HasPrefix(indent("x"), "    x") {
		t.Error("single line")
	}
}

// TestTraceJSONSchema drives the whole CLI in-process, sequentially over
// the paper's §3.3 example and with -batch over testdata/determinism's
// walk.{c,q}, and validates the JSONL trace schema: every line is one JSON
// object with ts_us / strictly-increasing seq / ev, the prover span carries
// its effort attributes, and the expected event kinds are present.  Each
// run streams one tree: only its pipeline.phase spans are roots, events
// included, the analysis sits under the analyze phase, every proof under
// the deptest phase (sequentially) or under an engine.worker (with -batch),
// and every DFA compile under the proof or analysis that ran it.
func TestTraceJSONSchema(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantExit   int
		proofUnder string
	}{
		{"sequential", []string{"-fn", "subr", "-from", "S", "-to", "T", "../../testdata/section33.c"}, 0, "pipeline.phase"},
		{"batch", []string{"-fn", "walk", "-batch", "../../testdata/determinism/walk.q", "../../testdata/determinism/walk.c"}, 1, "engine.worker"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-stats", "-trace-json", tracePath}, tc.args...), &stdout, &stderr)
			if code != tc.wantExit {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.wantExit, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "No") {
				t.Errorf("stdout missing verdict: %s", stdout.String())
			}
			checkTrace(t, tracePath, tc.name == "sequential", tc.proofUnder)
			// The -stats stderr summary carries the derived effort numbers.
			for _, want := range []string{"wall-clock per phase", "cache hit rate", "DFA compiles:", "counters:", "histograms:"} {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// checkTrace validates one -trace-json file (see TestTraceJSONSchema).
// allProved asks every proof to read "proved".
func checkTrace(t *testing.T, tracePath string, allProved bool, proofUnder string) {
	t.Helper()
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 5 {
		t.Fatalf("only %d trace lines", len(lines))
	}
	events := map[string]int{}
	spans := map[string]map[string]any{} // span_id → its line
	var parented []map[string]any
	lastSeq := int64(0)
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, ln)
		}
		for _, k := range []string{"ts_us", "seq", "ev"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line missing %q: %s", k, ln)
			}
		}
		seq := int64(m["seq"].(float64))
		if seq <= lastSeq {
			t.Errorf("seq not strictly increasing: %d after %d", seq, lastSeq)
		}
		lastSeq = seq
		ev := m["ev"].(string)
		events[ev]++
		// A span line carries its span_id and duration; an event line
		// carries neither.
		id, isSpan := m["span_id"].(string)
		if _, timed := m["dur_us"]; isSpan && !timed {
			t.Errorf("span line lacks dur_us: %s", ln)
		}
		if isSpan {
			spans[id] = m
		}
		if _, ok := m["parent_id"].(string); ok {
			parented = append(parented, m)
		} else if ev != "pipeline.phase" {
			t.Errorf("%s line is a root; only pipeline.phase spans are: %s", ev, ln)
		}
		if ev == "prover.prove" {
			for _, k := range []string{"span_id", "dur_us", "theorem", "result", "steps", "budget", "peak_depth", "dfa_compiles"} {
				if _, ok := m[k]; !ok {
					t.Errorf("prover.prove missing %q: %s", k, ln)
				}
			}
			if allProved && m["result"] != "proved" {
				t.Errorf("prover.prove result = %v, want proved", m["result"])
			}
		}
	}
	for _, ev := range []string{"pipeline.phase", "analysis.analyze", "prover.prove",
		"prover.suffix_split", "automata.compile", "core.deptest"} {
		if events[ev] == 0 {
			t.Errorf("no %s events in trace", ev)
		}
	}
	if events["prover.query"] != 0 {
		t.Errorf("%d prover.query lines; the proof is reported once, as prover.prove", events["prover.query"])
	}
	// Every parent_id names a span of the same trace, the analysis sits
	// under the analyze phase, each proof and query under proofUnder, the
	// rule events under their proof's span, and each DFA compile under the
	// proof or analysis that ran it.
	for _, m := range parented {
		ev := m["ev"].(string)
		parent, ok := spans[m["parent_id"].(string)]
		if !ok {
			t.Errorf("%s parented under %s, which is no span in the trace", ev, m["parent_id"])
			continue
		}
		pev := parent["ev"].(string)
		switch {
		case ev == "analysis.analyze":
			if pev != "pipeline.phase" || parent["phase"] != "analyze" {
				t.Errorf("analysis.analyze parented under %s (phase %v), want the analyze phase", pev, parent["phase"])
			}
		case ev == "prover.prove" || ev == "core.deptest":
			if pev != proofUnder {
				t.Errorf("%s parented under %s, want %s", ev, pev, proofUnder)
			}
		case strings.HasPrefix(ev, "prover.") && pev != "prover.prove":
			t.Errorf("%s parented under %s, want prover.prove", ev, pev)
		case ev == "automata.compile" && pev != "prover.prove" && pev != "analysis.analyze":
			t.Errorf("automata.compile parented under %s, want prover.prove or analysis.analyze", pev)
		}
	}
}

// TestRunPlainStillWorks: without telemetry flags the CLI behaves as before.
func TestRunPlainStillWorks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fn", "subr", "-from", "S", "-to", "T", "../../testdata/section33.c"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr without -stats: %s", stderr.String())
	}
}

// TestBatchMode: a -batch file expands to queries answered by the engine,
// printed in file order; batch results match the one-query-at-a-time CLI.
func TestBatchMode(t *testing.T) {
	batchFile := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(batchFile, []byte(`
# the §3.3 pair, both orientations (the engine canonicalizes the swap)
between S T
between T S

between S I
`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fn", "subr", "-batch", batchFile, "-workers", "4",
		"../../testdata/section33.c",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (every §3.3 query is No)\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	verdicts := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "No") {
			verdicts++
		}
		if strings.HasPrefix(line, "Maybe") || strings.HasPrefix(line, "Yes") {
			t.Errorf("unexpected verdict line: %s", line)
		}
	}
	if verdicts < 3 {
		t.Errorf("only %d verdict lines for 3 batch lines:\n%s", verdicts, stdout.String())
	}
}

// TestBatchModeStats: -stats adds the engine's cache summary, and the
// swapped orientation hits the canonicalized proof memo.
func TestBatchModeStats(t *testing.T) {
	batchFile := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(batchFile, []byte("between S T\nbetween T S\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-stats", "-fn", "subr", "-batch", batchFile,
		"../../testdata/section33.c",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "proof memo") {
		t.Errorf("stderr missing the engine summary:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "engine.memo_hits") && !strings.Contains(stderr.String(), "counters:") {
		t.Errorf("stderr missing engine counters:\n%s", stderr.String())
	}
	// The engine's shared DFA cache feeds the -stats summary lines.
	for _, want := range []string{"DFA language-cache hit rate", "DFA compiles:"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestBatchModeLoop: 'loop L' expands to the loop-carried self-dependence
// queries (the DOALL-legal loop of testdata/lint/doall.c answers No).
func TestBatchModeLoop(t *testing.T) {
	batchFile := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(batchFile, []byte("loop L\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fn", "scale", "-batch", batchFile,
		"../../testdata/lint/doall.c",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (doall.c is DOALL-legal)\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "No") {
		t.Errorf("no verdict printed:\n%s", stdout.String())
	}
}

// TestBatchModeBadLine: a malformed batch line is a usage error (exit 2)
// naming the offending line.
func TestBatchModeBadLine(t *testing.T) {
	batchFile := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(batchFile, []byte("between S\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fn", "subr", "-batch", batchFile, "../../testdata/section33.c"},
		&stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 for a malformed line", code)
	}
	if !strings.Contains(stderr.String(), "between S") {
		t.Errorf("stderr does not name the bad line:\n%s", stderr.String())
	}
}

// TestRunUsageError: bad flags exit 2 without panicking.
// TestStatsPromFile: -stats-prom writes the run's final counters as valid
// Prometheus text exposition, the one-shot CLI's counterpart of
// aptserved's /metrics.
func TestStatsPromFile(t *testing.T) {
	promFile := filepath.Join(t.TempDir(), "metrics.prom")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-stats-prom", promFile, "-fn", "subr", "-from", "S", "-to", "T",
		"../../testdata/section33.c",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(promFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheus(data); err != nil {
		t.Errorf("-stats-prom output invalid: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), "apt_prover_goals_total") {
		t.Errorf("exposition lacks prover counters:\n%s", data)
	}
}

func TestRunUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit = %d, want 2", code)
	}
	// A script written for an older build may still pass -preload; it must
	// fail, not run cold in silence.
	if code := run([]string{"-preload", "x", "../../testdata/section33.c"}, &stdout, &stderr); code != 2 {
		t.Errorf("-preload x: exit = %d, want 2", code)
	}
}
