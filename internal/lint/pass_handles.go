package lint

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guard"
)

// handleSafety renders the hazardous dereferences the memory-reference
// analysis records while it walks each function (analysis.Hazard):
//
//   - dereferences of handles that are definitely or possibly NULL,
//   - dereferences of handles that were never initialized, and
//   - uses of handles after a destructive update — a direct store or a
//     summarized call — rewrote a pointer field on the access path that
//     produced them (the hazard §3.4's axiom windows exist to contain).
type handleSafety struct{}

// HandleSafety returns the handle-safety pass.
func HandleSafety() Pass { return handleSafety{} }

func (handleSafety) Name() string { return "handle-safety" }
func (handleSafety) Doc() string {
	return "nil/uninitialized handle dereferences, uses after destructive updates"
}

func (handleSafety) Run(ctx *Context) error {
	for _, fn := range ctx.Prog.Funcs {
		if ctx.SkipFunc(fn.Name) {
			continue
		}
		res, err := ctx.Analysis(fn.Name)
		if err != nil {
			continue
		}
		for _, h := range res.Hazards {
			ctx.Report(hazardDiagnostic(h))
		}
	}
	return nil
}

// hazardDiagnostic words one hazard.  A stale use whose guards contradict
// the update's lies on a mutually exclusive path: what would have been a
// maybe-stale warning upgrades to a definite all-clear citing the guards.
func hazardDiagnostic(h analysis.Hazard) Diagnostic {
	d := Diagnostic{Pos: h.Pos, Severity: Error}
	switch h.Kind {
	case analysis.DerefUninit:
		d.Message = fmt.Sprintf("dereference of never-initialized handle %s", h.Var)
	case analysis.DerefMaybeUninit:
		d.Severity = Warning
		d.Message = fmt.Sprintf("dereference of possibly-uninitialized handle %s", h.Var)
	case analysis.DerefNil:
		d.Message = fmt.Sprintf("nil dereference of handle %s", h.Var)
	case analysis.DerefMaybeNil:
		d.Severity = Warning
		d.Message = fmt.Sprintf("possibly-nil dereference of handle %s", h.Var)
	case analysis.DerefStale:
		s := h.Stale
		d.Related = []Related{{Pos: s.Site, Message: fmt.Sprintf("field %s rewritten here", s.Field)}}
		if ru, rd, ok := guard.Conflict(s.Guards, s.SiteGuards); ok {
			d.Severity = Info
			d.UpgradedFromMaybe = true
			d.Message = fmt.Sprintf("use of handle %s is safe despite the destructive update of field %s: the update executes only under %s, this use only under %s — the paths are mutually exclusive", h.Var, s.Field, rd, ru)
		} else {
			d.Severity = Warning
			d.Message = fmt.Sprintf("use of handle %s after destructive update of field %s on its access path", h.Var, s.Field)
		}
		return d
	}
	if pos, note, ok := h.OriginNote(); ok {
		d.Related = []Related{{Pos: pos, Message: note}}
	}
	return d
}
