package baseline

import (
	"testing"

	"repro/internal/axiom"
	"repro/internal/core"
)

func TestHendrenNicolauPreciseOnTrees(t *testing.T) {
	hn := NewHendrenNicolau(axiom.BinaryTree("L", "R"))
	if got := hn.DepTest(q("_h", "L.L", "L.R")); got != core.No {
		t.Errorf("tree LL vs LR = %v, want No", got)
	}
	if got := hn.DepTest(q("_h", "L", "R")); got != core.No {
		t.Errorf("tree L vs R = %v, want No", got)
	}
	if got := hn.DepTest(q("_h", "L.L", "L.L")); got != core.Yes {
		t.Errorf("identical = %v, want Yes", got)
	}
}

func TestHendrenNicolauPreciseOnLists(t *testing.T) {
	hn := NewHendrenNicolau(axiom.SinglyLinkedList("next"))
	// The "k or more links ahead" relation: ε vs next+.
	if got := hn.DepTest(q("_h", "ε", "next+")); got != core.No {
		t.Errorf("list ε vs next+ = %v, want No", got)
	}
	if got := hn.DepTest(q("_h", "next", "next.next+")); got != core.No {
		t.Errorf("list next vs next.next+ = %v, want No", got)
	}
}

func TestHendrenNicolauFailsOffTrees(t *testing.T) {
	// §2.4: "does not handle cyclic data structures" and is precise for
	// trees only — the leaf-linked DAG and the sparse element structure are
	// out of reach.
	llt := NewHendrenNicolau(axiom.LeafLinkedBinaryTree())
	if got := llt.DepTest(q("_h", "L.L.N", "L.R.N")); got != core.Maybe {
		t.Errorf("leaf-linked LLN vs LRN = %v, want Maybe", got)
	}
	sm := NewHendrenNicolau(axiom.SparseMatrixCore())
	if got := sm.DepTest(q("_h", "ncolE+", "nrowE+ncolE+")); got != core.Maybe {
		t.Errorf("Theorem T = %v, want Maybe", got)
	}
	ring := NewHendrenNicolau(axiom.CircularList("next"))
	if got := ring.DepTest(q("_h", "ε", "next+")); got != core.Maybe {
		t.Errorf("circular list = %v, want Maybe", got)
	}
}

func TestHendrenNicolauExpressibility(t *testing.T) {
	// Alternations and interior closures exceed path-matrix form even on a
	// certified tree.
	hn := NewHendrenNicolau(axiom.BinaryTree("L", "R"))
	if got := hn.DepTest(q("_h", "L.(L|R)", "R")); got != core.Maybe {
		t.Errorf("alternation = %v, want Maybe (beyond path-matrix form)", got)
	}
	if got := hn.DepTest(q("_h", "L*.R", "R.R")); got != core.Maybe {
		t.Errorf("interior closure = %v, want Maybe", got)
	}
	// ... while APT handles both.
	apt := core.NewTester(axiom.BinaryTree("L", "R"), prover0())
	if out := apt.DepTest(aptQ(apt, "_h", "L.(L|R)", "R")); out.Result != core.No {
		t.Errorf("APT on alternation = %v, want No", out.Result)
	}
}

func TestHendrenNicolauStructuralChecks(t *testing.T) {
	hn := NewHendrenNicolau(axiom.BinaryTree("L", "R"))
	rr := q("_h", "L", "L")
	rr.S.IsWrite = false
	if got := hn.DepTest(rr); got != core.No {
		t.Errorf("read-read = %v, want No", got)
	}
	fields := q("_h", "L", "L")
	fields.S.Field = "other"
	if got := hn.DepTest(fields); got != core.No {
		t.Errorf("distinct fields = %v, want No", got)
	}
	diff := q("_hp", "L", "R")
	diff.T.Handle = "_hq"
	if got := hn.DepTest(diff); got != core.Maybe {
		t.Errorf("different handles = %v, want Maybe", got)
	}
	typed := q("_h", "L", "L")
	typed.S.Type, typed.T.Type = "A", "B"
	if got := hn.DepTest(typed); got != core.No {
		t.Errorf("different types = %v, want No", got)
	}
}
