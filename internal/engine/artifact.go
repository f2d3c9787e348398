package engine

// Artifact persistence of an engine's warm state: the DFA cache and proof
// memo it borrows (automata.SharedCache.Snapshot, core.Memo.AppendGoals)
// plus its axiom set, in full fidelity, so a loader can rebuild the engine.

import (
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/pathexpr"
)

// SnapshotArtifact captures the engine's warm working set as an artifact:
// the DFA cache's automata and boolean decisions, the proof memo's
// definitive verdicts (each scoped to its axiom-set fingerprint), and the
// engine's axiom set, in deterministic order.  An engine borrowing a pool's
// caches ships the whole pool's working set.
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
// cite axioms by name, so boot-time engine prewarm needs full fidelity.
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

// ArtifactAxiomSets reconstructs the artifact's persisted axiom sets.  A
// set with any unreconstructable axiom (unparseable expression, unknown
// form) is dropped whole: a partial set would have a different fingerprint
// and silently shadow nothing, but prewarming an engine under it would
// waste the memory without ever matching a request.
func ArtifactAxiomSets(art *automata.Artifact) []*axiom.Set {
	var out []*axiom.Set
	for _, as := range art.AxiomSets {
		set := axiom.NewSet(as.Name)
		ok := len(as.Axioms) > 0
		for _, a := range as.Axioms {
			re1, ok1 := art.PreparedExpr(a.RE1)
			re2, ok2 := art.PreparedExpr(a.RE2)
			if !ok1 || !ok2 || a.Form > uint8(axiom.SameSrcEqual) {
				ok = false
				break
			}
			set.Axioms = append(set.Axioms, axiom.Axiom{
				Name: a.Name, Form: axiom.Form(a.Form), RE1: re1, RE2: re2,
			})
		}
		if ok {
			out = append(out, set)
		}
	}
	return out
}
