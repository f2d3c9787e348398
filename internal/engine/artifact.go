package engine

// Artifact persistence of an engine's warm state: the DFA cache and proof
// memo it borrows (automata.SharedCache.Snapshot, core.Memo.AppendGoals)
// plus its axiom set, in full fidelity.

import (
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/pathexpr"
)

// SnapshotArtifact captures the engine's warm working set as an artifact:
// the DFA cache's automata and boolean decisions, the proof memo's
// definitive verdicts (each scoped to its axiom-set fingerprint), and the
// engine's default axiom set (which must be non-nil), in deterministic
// order.
func (e *Engine) SnapshotArtifact() *automata.Artifact {
	art := e.dfas.Snapshot()
	e.memo.AppendGoals(art)
	AppendAxiomSet(art, e.axioms)
	return art
}

// AppendAxiomSet serializes the full axiom set — struct name, axiom names,
// declaration order — into the artifact's axiom-set table.  The canonical
// fingerprint alone cannot reconstruct a set (it is sorted and name-blind),
// but proof search explores axioms in declaration order and proof traces
// cite axioms by name, so the table keeps full fidelity.
func AppendAxiomSet(art *automata.Artifact, set *axiom.Set) {
	internExpr := art.ExprInterner()
	as := automata.ArtifactAxiomSet{Name: set.StructName}
	for _, a := range set.Axioms {
		as.Axioms = append(as.Axioms, automata.ArtifactAxiom{
			Name: a.Name,
			Form: uint8(a.Form),
			RE1:  internExpr(pathexpr.Intern(a.RE1).String()),
			RE2:  internExpr(pathexpr.Intern(a.RE2).String()),
		})
	}
	art.AxiomSets = append(art.AxiomSets, as)
}
