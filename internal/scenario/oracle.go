package scenario

import (
	"fmt"

	"repro/internal/heap/oracle"
	"repro/internal/interp"
)

// event is an interp event with its global trace position.
type event struct {
	interp.Event
	idx int
}

// eventsAt collects the label's events with trace indices.
func eventsAt(tr *interp.Trace, label string) []event {
	var out []event
	for i, e := range tr.Events {
		if e.Label == label {
			out = append(out, event{e, i})
		}
	}
	return out
}

// lineConflict reports whether one run exhibits a dependence covered by the
// query line's claim, under the line's pairing discipline:
//
//   - between, straight-line: any pair (a, b) with a before b in the trace
//     (a "No" claims no instance of A conflicts with a later instance of B);
//   - between, same-iteration (both labels lockstep in one loop): pairs
//     occurrence i with occurrence i — the prover anchors both paths at the
//     shared iteration handle, so its claim is per-iteration;
//   - cross: occurrence i of A against occurrence j > i of B (lockstep
//     occurrence index = iteration index);
//   - loop: two distinct occurrences of A (each iteration executes the
//     label at most once, so distinct occurrences are distinct iterations).
func lineConflict(tr *interp.Trace, q QueryLine) (bool, string) {
	ea := eventsAt(tr, q.A)
	switch q.Mode {
	case "loop":
		for i := range ea {
			for j := i + 1; j < len(ea); j++ {
				if oracle.Conflict(ea[i].Event, ea[j].Event) {
					return true, fmt.Sprintf("occurrences %d and %d of %s touch vertex %d field %s",
						i, j, q.A, ea[i].Vertex, ea[i].Field)
				}
			}
		}
		return false, ""
	case "cross":
		eb := eventsAt(tr, q.B)
		for i := range ea {
			for j := i + 1; j < len(eb); j++ {
				if oracle.Conflict(ea[i].Event, eb[j].Event) {
					return true, fmt.Sprintf("%s@%d and %s@%d touch vertex %d field %s",
						q.A, i, q.B, j, ea[i].Vertex, ea[i].Field)
				}
			}
		}
		return false, ""
	default: // between
		eb := eventsAt(tr, q.B)
		if q.SameIter {
			n := len(ea)
			if len(eb) < n {
				n = len(eb)
			}
			for i := 0; i < n; i++ {
				if oracle.Conflict(ea[i].Event, eb[i].Event) {
					return true, fmt.Sprintf("iteration %d: %s and %s touch vertex %d field %s",
						i, q.A, q.B, ea[i].Vertex, ea[i].Field)
				}
			}
			return false, ""
		}
		for _, a := range ea {
			for _, b := range eb {
				if a.idx < b.idx && oracle.Conflict(a.Event, b.Event) {
					return true, fmt.Sprintf("%s then %s touch vertex %d field %s",
						q.A, q.B, a.Vertex, a.Field)
				}
			}
		}
		return false, ""
	}
}
