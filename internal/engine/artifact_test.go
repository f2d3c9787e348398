package engine

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// TestSnapshotArtifactGoalRoundTrip is the proof-memo persistence
// differential: a cold engine answers the seeded workload, its full
// snapshot (DFAs, decisions, goal verdicts) is saved and loaded
// back, and a preloaded engine must answer byte-identically — with proof
// verification on, so a restored Proved verdict whose derivation tree did
// not survive the round trip would fail CheckProof, degrade to Maybe, and
// break the differential.
func TestSnapshotArtifactGoalRoundTrip(t *testing.T) {
	queries := Workload(7, 0)
	cold := New(Options{Workers: 4, VerifyProofs: true})
	want := cold.Batch(context.Background(), queries)

	art := cold.SnapshotArtifact()
	if len(art.Goals) == 0 {
		t.Fatal("snapshot holds no goal verdicts; the round trip would be vacuous")
	}
	proved := 0
	for _, g := range art.Goals {
		if g.Result == 0 {
			proved++
			if len(g.Steps) == 0 {
				t.Errorf("proved goal %q has no derivation steps", g.Theorem)
			}
		} else if len(g.Steps) != 0 {
			t.Errorf("not-proved goal %q carries %d derivation steps", g.Theorem, len(g.Steps))
		}
	}
	if proved == 0 {
		t.Fatal("snapshot holds no proved goals; nothing would exercise tree reconstruction")
	}

	path := filepath.Join(t.TempDir(), "goals.aptc")
	if err := art.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := automata.LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}

	warm := New(preloaded(Options{Workers: 4, VerifyProofs: true}, back))
	got := warm.Batch(context.Background(), queries)
	for i := range got {
		if got[i].Result != want[i].Result || got[i].Kind != want[i].Kind || got[i].Reason != want[i].Reason {
			t.Errorf("query %d (%s): preloaded engine says %v/%v/%q, cold engine says %v/%v/%q",
				i, describe(queries[i]),
				got[i].Result, got[i].Kind, got[i].Reason,
				want[i].Result, want[i].Kind, want[i].Reason)
		}
	}
	if st := warm.Memo().Stats(); st.Hits == 0 {
		t.Error("preloaded engine had no memo hits; the goal verdicts were not consulted")
	}
}

// preloaded returns opts borrowing a DFA cache and a proof memo preseeded
// from art — what a preloaded engine runs on.
func preloaded(opts Options, art *automata.Artifact) Options {
	opts.DFACache = automata.NewSharedCache(0, 0, 0)
	opts.DFACache.Preseed(art)
	opts.Memo = core.NewMemo(0, 0, nil)
	opts.Memo.Preseed(art)
	return opts
}

// TestMemoPreseedFingerprintScoping checks the soundness boundary of goal
// persistence: a preseeded verdict is reachable under the identity of the
// axiom set it was proved under and under no other.
func TestMemoPreseedFingerprintScoping(t *testing.T) {
	setA := axiom.LeafLinkedBinaryTree()
	setB := axiom.SinglyLinkedList("next")
	x, y := setA.Axioms[0].RE1, setA.Axioms[0].RE2

	art := &automata.Artifact{}
	xi, yi := len(art.Exprs), len(art.Exprs)+1
	art.Exprs = append(art.Exprs, pathexpr.Intern(x).String(), pathexpr.Intern(y).String())
	art.Sigs = append(art.Sigs, setA.Key())
	art.Goals = append(art.Goals, automata.ArtifactGoal{
		Sig: 0, Form: uint8(prover.SameSrc), Result: 1, X: xi, Y: yi,
		Theorem: "scoping probe",
	})

	m := core.NewMemo(0, 0, nil)
	if n := m.Preseed(art); n != 1 {
		t.Fatalf("Preseed inserted %d goals, want 1", n)
	}
	if p := m.Prove(prover.New(setA, prover.Options{}), setA.ID(), prover.SameSrc, x, y); p.Theorem != "scoping probe" {
		t.Errorf("lookup under the recorded set searched (theorem %q); want the preseeded verdict", p.Theorem)
	}
	if p := m.Prove(prover.New(setB, prover.Options{}), setB.ID(), prover.SameSrc, x, y); p.Theorem == "scoping probe" {
		t.Error("lookup under a different axiom set was served from a verdict scoped to another fingerprint")
	}
}

// TestMemoPreseedSkipsMalformedGoals feeds Preseed entries that violate the
// Proved ⇔ has-derivation invariant or reference unparseable expressions;
// each must be skipped, never inserted.
func TestMemoPreseedSkipsMalformedGoals(t *testing.T) {
	set := axiom.SinglyLinkedList("next")
	art := &automata.Artifact{}
	art.Exprs = append(art.Exprs, "next", "next.next", "not a ( valid expr")
	art.Sigs = append(art.Sigs, set.Key())
	art.Goals = []automata.ArtifactGoal{
		// Proved but no derivation tree.
		{Sig: 0, Form: uint8(prover.SameSrc), Result: 0, X: 0, Y: 1},
		// Operand that fails to re-parse.
		{Sig: 0, Form: uint8(prover.SameSrc), Result: 1, X: 0, Y: 2},
		// NotProved carrying a tree (reconstruction yields a root; invariant
		// check must reject it).
		{Sig: 0, Form: uint8(prover.SameSrc), Result: 1, X: 0, Y: 1,
			Steps: []automata.ArtifactStep{{X: 0, Y: 1}}},
	}
	m := core.NewMemo(0, 0, nil)
	if n := m.Preseed(art); n != 0 {
		t.Errorf("Preseed inserted %d malformed goals, want 0", n)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Errorf("memo holds %d entries after malformed preseed, want 0", st.Entries)
	}
}
