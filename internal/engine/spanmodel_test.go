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

// TestOneSpanModel pins the one span model: the same batch run under a
// streaming trace (the CLIs' -trace-json) and under a retaining trace (a
// served request's tree) yields the same spans with the same parentage —
// engine.worker under the batch, each prover.prove under an engine.worker —
// and only the stream carries the per-step rule events.
func TestOneSpanModel(t *testing.T) {
	queries := Workload(3, 24)
	run := func(rt *telemetry.RequestTrace) {
		eng := New(WorkloadWindows()[0], Options{Workers: 1})
		batch := rt.StartSpan("test.batch", telemetry.SpanID{})
		eng.Batch(telemetry.WithTraceScope(context.Background(), rt, batch.ID()), queries)
		batch.End()
	}

	var buf bytes.Buffer
	run(telemetry.NewStreamingTrace(telemetry.NewTraceWriter(&buf)))
	names := map[string]string{} // span_id → name
	var spanLines, eventLines []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, ln)
		}
		if id, ok := m["span_id"].(string); ok {
			names[id] = m["ev"].(string)
			spanLines = append(spanLines, m)
		} else {
			eventLines = append(eventLines, m)
		}
	}
	var streamed []spanEdge
	for _, m := range spanLines {
		parent, _ := m["parent_id"].(string)
		streamed = append(streamed, spanEdge{m["ev"].(string), names[parent]})
	}

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

	sortEdges(streamed)
	sortEdges(retained)
	if !reflect.DeepEqual(streamed, retained) {
		t.Fatalf("span multisets differ:\nstream    %v\nretaining %v", streamed, retained)
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

	t.Logf("spans %v; %d rule events", count, len(eventLines))

	// The rule events exist only on the stream, each under its proof.
	if len(eventLines) == 0 {
		t.Fatal("stream holds no rule events")
	}
	for _, m := range eventLines {
		parent, _ := m["parent_id"].(string)
		if ev := m["ev"].(string); !strings.HasPrefix(ev, "prover.") || names[parent] != "prover.prove" {
			t.Errorf("event %s parented under %q, want a prover rule under prover.prove", ev, names[parent])
		}
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
