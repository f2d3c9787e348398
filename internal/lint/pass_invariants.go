package lint

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/axiom"
)

// invariantMaintenance statically audits structural update sites against the
// structure axioms, the way §3.4 of the paper does: a store to pointer field
// f suspends every axiom constraining f until the programmer restores the
// invariant.  The pass reports which axioms each update invalidates —
// upgraded to a warning inside loops, where the suspended window covers every
// loop-carried dependence test — and points functions that modify axiom
// fields at the dynamic checker (axiomcheck -maintain) for end-to-end
// verification.
type invariantMaintenance struct{}

// InvariantMaintenance returns the invariant-maintenance pass.
func InvariantMaintenance() Pass { return invariantMaintenance{} }

func (invariantMaintenance) Name() string { return "invariant-maintenance" }
func (invariantMaintenance) Doc() string {
	return "axioms invalidated at structural update sites (§3.4 windows)"
}

func (invariantMaintenance) Run(ctx *Context) error {
	sums := analysis.Summarize(ctx.Prog)
	for _, fn := range ctx.Prog.Funcs {
		if ctx.SkipFunc(fn.Name) {
			continue
		}
		res, err := ctx.Analysis(fn.Name)
		if err != nil {
			continue // not analyzable; other passes still cover it
		}
		for _, m := range res.Mods {
			names := axiomsMentioning(res.Axioms, m.Field)
			if len(names) == 0 {
				continue
			}
			sev := Info
			msg := fmt.Sprintf(
				"structural update of field %s suspends axiom %s until the invariant is restored (§3.4 window)",
				m.Field, strings.Join(names, ", "))
			if m.Loop != nil {
				sev = Warning
				msg = fmt.Sprintf(
					"structural update of field %s inside a loop suspends axiom %s for every loop-carried dependence test (§3.4 window)",
					m.Field, strings.Join(names, ", "))
			}
			ctx.Reportf(m.Pos, sev, "%s", msg)
		}

		// Function-level: if the function's net effect touches axiom fields,
		// suggest verifying it re-establishes the invariants dynamically.
		sum := sums[fn.Name]
		if sum == nil || len(res.Mods) == 0 {
			continue
		}
		var touched []string
		for _, f := range sum.ModifiedFields {
			if len(axiomsMentioning(res.Axioms, f)) > 0 {
				touched = append(touched, f)
			}
		}
		if len(touched) > 0 {
			ctx.Reportf(fn.Pos, Info,
				"function %s modifies axiom-constrained field(s) %s; verify it re-establishes the structure axioms with: axiomcheck -maintain %s -src %s",
				fn.Name, strings.Join(touched, ", "), fn.Name, ctx.File)
		}
	}
	return nil
}

// axiomsMentioning returns the names of axioms constraining the given field.
func axiomsMentioning(set *axiom.Set, field string) []string {
	var out []string
	for _, a := range set.Axioms {
		for _, f := range a.Fields() {
			if f == field {
				out = append(out, a.Name)
				break
			}
		}
	}
	return out
}
