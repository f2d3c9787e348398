package engine

import "repro/internal/automata"

// SnapshotArtifact captures the engine's warm working set as an artifact:
// the DFA cache's automata and boolean decisions and the proof memo's
// definitive verdicts (each scoped to its axiom-set fingerprint), in
// deterministic order.
func (e *Engine) SnapshotArtifact() *automata.Artifact {
	art := e.dfas.Snapshot()
	e.memo.AppendGoals(art)
	return art
}
