package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// spanEdge is one span of a trace, named with its parent's name ("" for a
// root).
type spanEdge struct{ name, parent string }

// streamed parses a streaming trace into its spans, each named with its
// parent, and its events, each as {ev, parent span's name}.
func streamed(t *testing.T, buf *bytes.Buffer) (spans, events []spanEdge) {
	t.Helper()
	names := map[string]string{} // span_id → name
	var lines []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, ln)
		}
		if id, ok := m["span_id"].(string); ok {
			names[id] = m["ev"].(string)
		}
		lines = append(lines, m)
	}
	for _, m := range lines {
		parent, _ := m["parent_id"].(string)
		e := spanEdge{m["ev"].(string), names[parent]}
		if _, ok := m["span_id"]; ok {
			spans = append(spans, e)
		} else {
			events = append(events, e)
		}
	}
	return spans, events
}

// TestOneSpanModel pins the one span model: the same batch run under a
// streaming trace (the CLIs' -trace-json) and under a retaining trace (a
// served request's tree), each handed to the batch as its Set, yields the
// same spans with the same parentage — engine.worker under the batch, each
// prover.prove under an engine.worker — and only the stream carries the
// per-query core.deptest events and the per-step rule events.
func TestOneSpanModel(t *testing.T) {
	queries := Workload(3, 24)
	run := func(rt *telemetry.RequestTrace) {
		eng := New(Options{Workers: 1})
		batch := rt.StartSpan("test.batch", telemetry.SpanID{})
		eng.BatchTimeout(context.Background(), queries, 0, telemetry.New(nil, rt).Under(batch.ID()))
		batch.End()
	}

	var buf bytes.Buffer
	run(telemetry.NewStreamingTrace(telemetry.NewTraceWriter(&buf)))
	stream, events := streamed(t, &buf)

	retaining := telemetry.NewRequestTrace(telemetry.NewTraceContext())
	run(retaining)
	recs := retaining.Spans()
	byID := map[string]string{}
	for _, sp := range recs {
		byID[sp.ID] = sp.Name
	}
	var retained []spanEdge
	for _, sp := range recs {
		retained = append(retained, spanEdge{sp.Name, byID[sp.Parent]})
	}

	sortEdges(stream)
	sortEdges(retained)
	if !reflect.DeepEqual(stream, retained) {
		t.Fatalf("span multisets differ:\nstream    %v\nretaining %v", stream, retained)
	}
	count := map[string]int{}
	for _, e := range retained {
		count[e.name]++
		switch e.name {
		case "test.batch":
		case "engine.worker":
			if e.parent != "test.batch" {
				t.Errorf("engine.worker parented under %q, want the batch", e.parent)
			}
		case "prover.prove":
			if e.parent != "engine.worker" {
				t.Errorf("prover.prove parented under %q, want engine.worker", e.parent)
			}
		default:
			t.Errorf("unexpected span %q (parent %q)", e.name, e.parent)
		}
	}
	if count["engine.worker"] == 0 || count["prover.prove"] == 0 {
		t.Fatalf("span counts %v: want engine.worker and prover.prove spans", count)
	}

	t.Logf("spans %v; %d events", count, len(events))

	// The events exist only on the stream: one core.deptest per query
	// under its worker, each rule under its proof.
	checkEvents(t, events, len(queries))

	// The CLIs' configuration: an engine whose own Telemetry streams,
	// batched without a Set of its own.  Each worker is a root, and every
	// proof, query and compile event of the batch sits under one.
	buf.Reset()
	eng := New(Options{Workers: 2, Telemetry: telemetry.New(nil, telemetry.NewStreamingTrace(telemetry.NewTraceWriter(&buf)))})
	eng.Batch(context.Background(), queries)
	spans, events := streamed(t, &buf)
	count = map[string]int{}
	for _, e := range spans {
		count[e.name]++
		want := "engine.worker"
		if e.name == "engine.worker" {
			want = ""
		}
		if e.parent != want {
			t.Errorf("%s parented under %q, want %q", e.name, e.parent, want)
		}
	}
	if count["engine.worker"] == 0 || count["prover.prove"] == 0 || len(count) != 2 {
		t.Fatalf("span counts %v: want engine.worker and prover.prove spans alone", count)
	}
	checkEvents(t, events, len(queries))
}

// checkEvents asserts a stream's events: n core.deptest events, each under
// an engine.worker, and rule and DFA-compile events, each under the
// prover.prove whose search caused it.  Each run's engine is fresh, so its
// proofs compile DFAs.
func checkEvents(t *testing.T, events []spanEdge, n int) {
	t.Helper()
	deptests, rules, compiles := 0, 0, 0
	for _, e := range events {
		switch {
		case e.name == "core.deptest":
			deptests++
			if e.parent != "engine.worker" {
				t.Errorf("core.deptest parented under %q, want engine.worker", e.parent)
			}
		case e.name == "automata.compile" && e.parent == "prover.prove":
			compiles++
		case strings.HasPrefix(e.name, "prover.") && e.parent == "prover.prove":
			rules++
		default:
			t.Errorf("event %s parented under %q, want a prover rule or DFA compile under prover.prove", e.name, e.parent)
		}
	}
	if deptests != n || rules == 0 || compiles == 0 {
		t.Errorf("%d core.deptest, %d rule and %d compile events, want %d, some and some", deptests, rules, compiles, n)
	}
}

func sortEdges(es []spanEdge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].parent < es[j].parent
	})
}
