package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldens lints every seeded program under testdata/lint and compares
// the text output (with the exit status pinned on the first line) against
// the committed golden file.  Regenerate with: go test ./cmd/aptlint -update
func TestGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no lint testdata found: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".c")
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{file}, &stdout, &stderr)
			got := fmt.Sprintf("exit=%d\n%s", code,
				strings.ReplaceAll(stdout.String(), file, filepath.Base(file)))
			golden := strings.TrimSuffix(file, ".c") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output mismatch for %s:\n--- got ---\n%s--- want ---\n%s",
					file, got, want)
			}
		})
	}
}

// TestSeededFindings pins the acceptance behaviors: a contradictory axiom
// set and an unsafe loop exit non-zero, and the DOALL-safe loop reports a
// "No dependence" diagnostic.
func TestSeededFindings(t *testing.T) {
	cases := []struct {
		file     string
		wantExit int
		want     string
	}{
		{"bad_axioms.c", 1, "self-contradictory"},
		{"unsafe_loop.c", 1, "provable dependence"},
		{"doall.c", 0, "No dependence"},
		{"clean.c", 0, ""},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{filepath.Join("..", "..", "testdata", "lint", tc.file)}, &stdout, &stderr)
		if code != tc.wantExit {
			t.Errorf("%s: exit = %d, want %d\n%s%s", tc.file, code, tc.wantExit, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.file, tc.want, stdout.String())
		}
		if tc.want == "" && stdout.String() != "" {
			t.Errorf("%s: expected no diagnostics, got:\n%s", tc.file, stdout.String())
		}
	}
}

// TestSelfSmoke reproduces `make lintsmoke`: lint every program in testdata/
// and testdata/lint/ and compare against the committed combined golden.
func TestSelfSmoke(t *testing.T) {
	// Same file order as the Makefile's lintsmoke loop: testdata/*.c then
	// testdata/lint/*.c (Glob returns each pattern's matches sorted).
	var files []string
	for _, pat := range []string{
		filepath.Join("..", "..", "testdata", "*.c"),
		filepath.Join("..", "..", "testdata", "lint", "*.c"),
	} {
		fs, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	var b strings.Builder
	for _, file := range files {
		rel := strings.TrimPrefix(filepath.ToSlash(file), "../../")
		fmt.Fprintf(&b, "== %s\n", rel)
		var stdout, stderr bytes.Buffer
		code := run([]string{file}, &stdout, &stderr)
		b.WriteString(strings.ReplaceAll(stdout.String(), filepath.ToSlash(file), rel))
		fmt.Fprintf(&b, "exit=%d\n", code)
	}
	golden := filepath.Join("..", "..", "testdata", "lint", "selfsmoke.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("self-smoke mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", filepath.Join("..", "..", "testdata", "lint", "nil_deref.c")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, stderr.String())
	}
	var diags []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics in JSON output")
	}
	for _, k := range []string{"file", "line", "col", "severity", "category", "message", "fingerprint"} {
		if _, ok := diags[0][k]; !ok {
			t.Errorf("JSON diagnostic missing key %q: %v", k, diags[0])
		}
	}
	if fp, _ := diags[0]["fingerprint"].(string); len(fp) != 16 || fp == "0000000000000000" {
		t.Errorf("fingerprint %q is not a 16-hex-digit declaration hash", diags[0]["fingerprint"])
	}
}

// TestJSONSchemaGolden pins the machine-readable schema, including the
// path-sensitivity fields (fingerprint, upgraded_from_maybe).  Fingerprints
// are content hashes and deterministic, so the full output is golden-able.
func TestJSONSchemaGolden(t *testing.T) {
	file := filepath.Join("..", "..", "testdata", "lint", "guarded_doall.c")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", file}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, stderr.String())
	}
	got := strings.ReplaceAll(stdout.String(), filepath.ToSlash(file), "guarded_doall.c")
	golden := filepath.Join("..", "..", "testdata", "lint", "guarded_doall.json.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("JSON schema drift:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(got), &diags); err != nil || len(diags) == 0 {
		t.Fatalf("golden is not a JSON diagnostic array: %v", err)
	}
	if up, _ := diags[0]["upgraded_from_maybe"].(bool); !up {
		t.Errorf("guard-upgraded verdict not flagged in JSON: %v", diags[0])
	}
}

// TestWatchFirstPassMatchesPlainRun: `aptlint -watch` must open with output
// byte-identical to a plain run over the same files.
func TestWatchFirstPassMatchesPlainRun(t *testing.T) {
	files := []string{
		filepath.Join("..", "..", "testdata", "lint", "guarded_doall.c"),
		filepath.Join("..", "..", "testdata", "lint", "use_after_update.c"),
	}
	var plain, plainErr bytes.Buffer
	plainCode := run(files, &plain, &plainErr)

	var watch, watchErr bytes.Buffer
	watchCode := run(append([]string{"-watch", "-watch-cycles", "1", "-watch-interval", "1ms"}, files...),
		&watch, &watchErr)
	if watchCode != plainCode {
		t.Errorf("watch exit = %d, plain exit = %d", watchCode, plainCode)
	}
	if watch.String() != plain.String() {
		t.Errorf("watch first pass diverges from plain run:\n--- watch ---\n%s--- plain ---\n%s",
			watch.String(), plain.String())
	}
}

// TestIncrCache: two one-shot runs against the same persisted store produce
// identical output, and the store file survives with the schema marker.
func TestIncrCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "store.json")
	file := filepath.Join("..", "..", "testdata", "lint", "use_after_update.c")

	var first, second, plain, stderr bytes.Buffer
	if code := run([]string{"-incr-cache", cache, file}, &first, &stderr); code != 0 {
		t.Fatalf("first run exit = %d\n%s", code, stderr.String())
	}
	if code := run([]string{"-incr-cache", cache, file}, &second, &stderr); code != 0 {
		t.Fatalf("second run exit = %d\n%s", code, stderr.String())
	}
	run([]string{file}, &plain, &stderr)
	if first.String() != plain.String() || second.String() != first.String() {
		t.Errorf("incremental runs diverge from plain run:\nplain:\n%s\nfirst:\n%s\nsecond:\n%s",
			plain.String(), first.String(), second.String())
	}
	data, err := os.ReadFile(cache)
	if err != nil || !strings.Contains(string(data), "aptlint-fp-") {
		t.Errorf("store not persisted: %v\n%s", err, data)
	}
}

// TestParseErrorIsDiagnostic: a file the frontend rejects yields an
// error-severity diagnostic in the "parse" category (exit 1), not a tool
// failure (exit 2).
func TestParseErrorIsDiagnostic(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.c")
	if err := os.WriteFile(bad, []byte("void f( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{bad}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[parse]") {
		t.Errorf("parse failure not reported in the parse category:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	if code := run([]string{"does-not-exist.c"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing-file exit = %d, want 2", code)
	}
	if code := run([]string{"-pass", "nope", "x.c"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown-pass exit = %d, want 2", code)
	}
	if code := run([]string{"-preload", "x", filepath.Join("..", "..", "testdata", "lint", "doall.c")}, &stdout, &stderr); code != 2 {
		t.Errorf("-preload x exit = %d, want 2", code)
	}
}

func TestPassSelectionAndListing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-passes"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-passes exit = %d", code)
	}
	for _, name := range []string{"axiom-consistency", "handle-safety", "invariant-maintenance", "parallelization-legality", "lang-hygiene"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-passes listing lacks %s:\n%s", name, stdout.String())
		}
	}

	// Restricting to lang-hygiene suppresses the axiom errors in bad_axioms.c.
	stdout.Reset()
	code := run([]string{"-pass", "lang-hygiene", filepath.Join("..", "..", "testdata", "lint", "bad_axioms.c")}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("hygiene-only lint of bad_axioms.c: exit = %d, want 0\n%s", code, stdout.String())
	}
	if strings.Contains(stdout.String(), "axiom-consistency") {
		t.Errorf("disabled pass still reported:\n%s", stdout.String())
	}
}

// TestStatsAndTrace exercises the shared telemetry flags end to end: -stats
// prints per-pass counters and -trace-json emits lint.pass spans.
func TestStatsAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-stats", "-trace-json", tracePath,
		filepath.Join("..", "..", "testdata", "lint", "doall.c")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "lint.files") {
		t.Errorf("-stats summary lacks lint counters:\n%s", stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "lint.pass") {
		t.Errorf("trace lacks lint.pass spans:\n%s", data)
	}
}

// TestTraceJSONSchema: -trace-json streams one span tree per phase.  Only
// the pipeline.phase spans are roots, events included; each lint.pass span
// sits under a lint phase, the analysis and the engine's batch under a
// lint.pass, and each DFA compile under the proof or analysis that ran it
// — in a one-shot run, an incremental one and a watch session (whose
// re-lints each open their own lint phase).  walk.c's lint compiles DFAs.
func TestTraceJSONSchema(t *testing.T) {
	file := filepath.Join("..", "..", "testdata", "determinism", "walk.c")
	for name, args := range map[string][]string{
		"one-shot":    {file},
		"incremental": {"-incr-cache", filepath.Join(t.TempDir(), "store.json"), file},
		"watch":       {"-watch", "-watch-cycles", "1", "-watch-interval", "1ms", file},
	} {
		t.Run(name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"-trace-json", tracePath}, args...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			byID := map[string]map[string]any{}
			var lines []map[string]any
			for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				var m map[string]any
				if err := json.Unmarshal([]byte(ln), &m); err != nil {
					t.Fatalf("trace line not JSON: %v\n%s", err, ln)
				}
				if id, ok := m["span_id"].(string); ok {
					byID[id] = m
				}
				lines = append(lines, m)
			}
			parentEv := func(m map[string]any) string {
				p, ok := m["parent_id"].(string)
				if !ok {
					return ""
				}
				return byID[p]["ev"].(string)
			}
			seen := map[string]int{}
			for _, m := range lines {
				ev := m["ev"].(string)
				seen[ev]++
				_, parented := m["parent_id"].(string)
				if parented == (ev == "pipeline.phase") {
					t.Errorf("%s: parented = %v; only pipeline.phase spans are roots: %v", ev, parented, m)
				}
				got := parentEv(m)
				if ev == "automata.compile" {
					if got != "prover.prove" && got != "analysis.analyze" {
						t.Errorf("automata.compile under %q, want under prover.prove or analysis.analyze", got)
					}
					continue
				}
				want := map[string]string{
					"lint.pass":        "pipeline.phase",
					"analysis.analyze": "lint.pass",
					"engine.worker":    "lint.pass",
				}[ev]
				if want != "" && got != want {
					t.Errorf("%s under %q, want under %s", ev, got, want)
				}
			}
			for _, ev := range []string{"pipeline.phase", "lint.pass", "analysis.analyze", "engine.worker", "automata.compile"} {
				if seen[ev] == 0 {
					t.Errorf("no %s record in the trace", ev)
				}
			}
		})
	}
}
