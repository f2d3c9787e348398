package core

// Proof-memo persistence: definitive prover verdicts travel in the same
// aptc artifact as the DFA cache's working set, so a preloaded memo
// answers its first goals from hits instead of re-running proof searches.
// Verdicts are theorems OF an axiom set, so every persisted goal is scoped
// to its set's canonical fingerprint (axiom.Set.Key): Preseed rebinds
// fingerprints to process-local IDs and a goal can only ever be consulted
// under an axiom set with an equal fingerprint.  Proved goals carry their
// full derivation tree, so restored proofs stay machine-checkable
// (Tester's VerifyProofs path re-runs prover.CheckProof on them exactly as
// on freshly searched ones).

import (
	"sort"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// AppendGoals serializes the memo's completed definitive entries into art,
// in deterministic order.  Entries still in flight, exhausted, or whose
// identities cannot be reversed to serializable form are skipped.
func (m *Memo) AppendGoals(art *automata.Artifact) {
	type goalEnt struct {
		sig     string
		form    prover.Form
		x, y    string
		theorem string
		result  prover.Result
		root    *prover.Step
	}
	var ents []goalEnt
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for key, e := range sh.m {
			select {
			case <-e.done:
			default:
				continue // in flight; its waiters own it
			}
			p := e.proof
			if p == nil || (p.Result != prover.Proved && p.Result != prover.NotProved) {
				continue
			}
			sig, ok := axiom.KeyForID(key.ax)
			if !ok {
				continue
			}
			xn, yn := pathexpr.LookupID(key.goal.A), pathexpr.LookupID(key.goal.B)
			if xn == nil || yn == nil {
				continue
			}
			ents = append(ents, goalEnt{
				sig: sig, form: key.goal.Form,
				x: xn.String(), y: yn.String(),
				theorem: p.Theorem, result: p.Result, root: p.Root,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if a.sig != b.sig {
			return a.sig < b.sig
		}
		if a.form != b.form {
			return a.form < b.form
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.y < b.y
	})

	internExpr := art.ExprInterner()
	sigIdx := make(map[string]int)
	internSig := func(s string) int {
		if i, ok := sigIdx[s]; ok {
			return i
		}
		i := len(art.Sigs)
		sigIdx[s] = i
		art.Sigs = append(art.Sigs, s)
		return i
	}
	var flatten func(s *prover.Step, out []automata.ArtifactStep) []automata.ArtifactStep
	flatten = func(s *prover.Step, out []automata.ArtifactStep) []automata.ArtifactStep {
		out = append(out, automata.ArtifactStep{
			Rule: uint8(s.Rule), Form: uint8(s.Form),
			AltOnLeft: s.AltOnLeft, StarOnLeft: s.StarOnLeft,
			X:       internExpr(pathexpr.Intern(s.X).String()),
			Y:       internExpr(pathexpr.Intern(s.Y).String()),
			SuffixI: int32(s.SuffixI), SuffixJ: int32(s.SuffixJ),
			AltIndex: int32(s.AltIndex), Kids: len(s.Children),
			By: s.By, ByT1: s.ByT1, ByT2: s.ByT2, Note: s.Note,
		})
		for _, c := range s.Children {
			out = flatten(c, out)
		}
		return out
	}
	for _, g := range ents {
		var steps []automata.ArtifactStep
		if g.root != nil {
			steps = flatten(g.root, nil)
		}
		art.Goals = append(art.Goals, automata.ArtifactGoal{
			Sig:     internSig(g.sig),
			Form:    uint8(g.form),
			Result:  uint8(g.result),
			X:       internExpr(g.x),
			Y:       internExpr(g.y),
			Theorem: g.theorem,
			Steps:   steps,
		})
	}
}

// Preseed inserts the artifact's goal verdicts into the memo, each under
// the process-local identity of its recorded axiom-set fingerprint, and
// returns the number inserted.  Entries already present, malformed entries,
// and entries whose expressions fail to re-parse are skipped — degraded
// warmth, never a verdict under the wrong axioms.
func (m *Memo) Preseed(art *automata.Artifact) int {
	sigIDs := make([]uint64, len(art.Sigs))
	for i, s := range art.Sigs {
		sigIDs[i] = axiom.IDForKey(s)
	}
	inserted := 0
	for _, g := range art.Goals {
		x, okX := art.PreparedExpr(g.X)
		y, okY := art.PreparedExpr(g.Y)
		if !okX || !okY || g.Sig < 0 || g.Sig >= len(sigIDs) {
			continue
		}
		root, rest, ok := rebuildStep(art, g.Steps)
		if !ok || len(rest) != 0 {
			continue
		}
		result := prover.Result(g.Result)
		// A proved verdict without its derivation (or vice versa) is
		// malformed: restoring it would break the Proved ⇒ checkable-tree
		// invariant VerifyProofs relies on.
		if (result == prover.Proved) != (root != nil) {
			continue
		}
		proof := &prover.Proof{Result: result, Theorem: g.Theorem, Root: root}
		key := memoKey{ax: sigIDs[g.Sig], goal: CanonicalGoalKey(prover.Form(g.Form), x, y)}
		sh := m.shardFor(key)
		done := make(chan struct{})
		close(done)
		sh.mu.Lock()
		if _, exists := sh.m[key]; !exists {
			sh.m[key] = &memoEntry{done: done, proof: proof}
			inserted++
		}
		sh.mu.Unlock()
	}
	return inserted
}

// rebuildStep reconstructs a prover step tree from its pre-order
// flattening, returning the unconsumed tail.  An empty list yields a nil
// root (the NotProved case).
func rebuildStep(art *automata.Artifact, flat []automata.ArtifactStep) (*prover.Step, []automata.ArtifactStep, bool) {
	if len(flat) == 0 {
		return nil, flat, true
	}
	n := flat[0]
	x, okX := art.PreparedExpr(n.X)
	y, okY := art.PreparedExpr(n.Y)
	if !okX || !okY || n.Kids < 0 || n.Kids > len(flat)-1 {
		return nil, nil, false
	}
	s := &prover.Step{
		Rule: prover.Rule(n.Rule), Form: prover.Form(n.Form),
		X: x, Y: y,
		SuffixI: int(n.SuffixI), SuffixJ: int(n.SuffixJ),
		By: n.By, ByT1: n.ByT1, ByT2: n.ByT2,
		AltOnLeft: n.AltOnLeft, AltIndex: int(n.AltIndex),
		StarOnLeft: n.StarOnLeft, Note: n.Note,
	}
	rest := flat[1:]
	for i := 0; i < n.Kids; i++ {
		var c *prover.Step
		var ok bool
		c, rest, ok = rebuildStep(art, rest)
		if !ok || c == nil {
			return nil, nil, false
		}
		s.Children = append(s.Children, c)
	}
	return s, rest, true
}
