package prover

import (
	"fmt"
	"strings"

	"repro/internal/pathexpr"
)

// Result classifies the outcome of a proof attempt.
type Result int

// Proof outcomes.
const (
	// Proved: a proof of disjointness was found; the answer No (no
	// dependence) is justified.
	Proved Result = iota
	// NotProved: the search space was exhausted without a proof; the paths
	// may alias.  Combined with a definite-alias check this maps to Maybe.
	NotProved
	// Exhausted: the resource budget (steps, depth, or DFA states) ran out
	// before the search completed; the only sound answer is Maybe.
	Exhausted
)

func (r Result) String() string {
	switch r {
	case Proved:
		return "proved"
	case NotProved:
		return "not proved"
	case Exhausted:
		return "exhausted"
	}
	return "unknown"
}

// Rule identifies the inference rule justifying a proof step.  Steps carry
// enough structure for an independent checker (CheckProof) to re-validate
// every application.
type Rule int

// Inference rules.
const (
	// RuleTrivial: ∀h<>k, h.ε <> k.ε — distinct vertices differ.
	RuleTrivial Rule = iota
	// RuleVacuous: one side denotes the empty language (no traversal).
	RuleVacuous
	// RuleAxiom: direct application of a single axiom or induction
	// hypothesis by language inclusion.
	RuleAxiom
	// RuleSuffixAB: a suffix split whose suffixes are disjoint both from the
	// same vertex (T1) and from distinct vertices (T2) — Figure 5's A∧B.
	RuleSuffixAB
	// RuleCaseC: T1 holds and the prefixes provably denote the same vertex.
	RuleCaseC
	// RuleCaseD: T2 holds and the prefixes are recursively proved disjoint
	// (the child).
	RuleCaseD
	// RuleStarUnfold: a trailing a* splits into its ε and a⁺ cases (two
	// children).
	RuleStarUnfold
	// RulePlusInduction: the paper's Kleene induction over trailing ⁺
	// components; children are the base cases followed by the inductive
	// step (proved under the induction hypothesis).
	RulePlusInduction
	// RuleAltSplit: a top-level alternative component splits the goal into
	// one child per alternative.
	RuleAltSplit
)

func (r Rule) String() string {
	switch r {
	case RuleTrivial:
		return "trivial"
	case RuleVacuous:
		return "vacuous"
	case RuleAxiom:
		return "axiom"
	case RuleSuffixAB:
		return "suffix-split"
	case RuleCaseC:
		return "case C"
	case RuleCaseD:
		return "case D"
	case RuleStarUnfold:
		return "star-unfold"
	case RulePlusInduction:
		return "plus-induction"
	case RuleAltSplit:
		return "alt-split"
	}
	return "unknown"
}

// Step is one node of a proof tree.  Children justify the parent according
// to Rule.  X and Y are the goal's two (normalized) path expressions.
type Step struct {
	Rule Rule
	Form Form
	X, Y pathexpr.Expr
	// SuffixI and SuffixJ are the suffix lengths (in components) of a
	// suffix-based rule (RuleSuffixAB, RuleCaseC, RuleCaseD).
	SuffixI, SuffixJ int
	// By names the applied fact for RuleAxiom; ByT1/ByT2 name the facts
	// discharging the suffix obligations of the suffix-based rules.
	By, ByT1, ByT2 string
	// AltOnLeft/AltIndex locate the alternative component split by
	// RuleAltSplit; StarOnLeft locates RuleStarUnfold's component.
	AltOnLeft  bool
	AltIndex   int
	StarOnLeft bool
	Note       string
	Children   []*Step
}

func step(g goal, rule Rule) *Step {
	return &Step{Rule: rule, Form: g.form, X: expr(g.x), Y: expr(g.y)}
}

// GoalString renders the step's goal.
func (s *Step) GoalString() string {
	return goal{form: s.Form, x: pathexpr.Components(s.X), y: pathexpr.Components(s.Y)}.String()
}

// Stats counts the work a proof attempt performed.
type Stats struct {
	// ProveCalls is the number of goals examined.
	ProveCalls int
	// DirectChecks is the number of axiom/lemma inclusion tests attempted.
	DirectChecks int
	// FilteredChecks is the number of those the summary filter answered
	// "no" alone, without asking the language layer.
	FilteredChecks int
	// Inductions is the number of Kleene induction schemata instantiated.
	Inductions int
	// DFACompiles is the number of DFA compilations (language-cache misses)
	// the query triggered in the automata layer.
	DFACompiles int
	// PeakDepth is the deepest goal nesting the search reached.
	PeakDepth int
}

// Proof is the outcome of one prover invocation.
type Proof struct {
	Result Result
	// Theorem is the rendered goal that was attempted.
	Theorem string
	// Root is the derivation tree (nil unless Proved).  It is
	// machine-checkable: prover.CheckProof re-validates every rule
	// application independently of the search.
	Root *Step
	// Stats describes the search effort.
	Stats Stats
}

// Render formats the proof trace as an indented derivation, in the spirit of
// the paper's paraphrased proof in §3.3.  The DFA compile count is left
// out: a search compiles only what a shared DFA cache lacks, so that count
// says which search reached an automaton first (the prover.prove span
// carries it).
func (p *Proof) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem: %s\n", p.Theorem)
	switch p.Result {
	case Proved:
		b.WriteString("Proof:\n")
		renderStep(&b, p.Root, 1)
		b.WriteString("∎\n")
	case NotProved:
		b.WriteString("No proof exists under the given axioms (dependence possible).\n")
	case Exhausted:
		b.WriteString("Resource budget exhausted before the search completed (answer: Maybe).\n")
	}
	fmt.Fprintf(&b, "[%d goals examined, %d axiom applications tried, %d inductions, peak depth %d]\n",
		p.Stats.ProveCalls, p.Stats.DirectChecks, p.Stats.Inductions, p.Stats.PeakDepth)
	return b.String()
}

func renderStep(b *strings.Builder, s *Step, depth int) {
	if s == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s- %s", indent, s.Rule)
	if note := s.describe(); note != "" {
		fmt.Fprintf(b, " (%s)", note)
	}
	fmt.Fprintf(b, ": %s\n", s.GoalString())
	for _, c := range s.Children {
		renderStep(b, c, depth+1)
	}
}

// describe builds the human-readable justification from the typed fields.
func (s *Step) describe() string {
	switch s.Rule {
	case RuleTrivial:
		return "distinct vertices h and k differ"
	case RuleVacuous:
		return "access path denotes no traversal"
	case RuleAxiom:
		return s.By
	case RuleSuffixAB:
		sp, sq := s.suffixStrings()
		return fmt.Sprintf("suffixes %s | %s disjoint from same source by %s and distinct sources by %s",
			sp, sq, s.ByT1, s.ByT2)
	case RuleCaseC:
		pp, pq := s.prefixStrings()
		return fmt.Sprintf("prefixes %s = %s denote the same vertex; suffixes disjoint by %s", pp, pq, s.ByT1)
	case RuleCaseD:
		sp, sq := s.suffixStrings()
		return fmt.Sprintf("suffixes %s | %s disjoint from distinct sources by %s; prefixes proved disjoint",
			sp, sq, s.ByT2)
	case RuleStarUnfold:
		side := "right"
		if s.StarOnLeft {
			side = "left"
		}
		return side + " trailing star split into ε and ⁺ cases"
	case RulePlusInduction:
		if len(s.Children) == 4 {
			return "both paths end in ⁺: cases (a,b), (a⁺,b), (a,b⁺), and inductive step (a⁺a, b⁺b)"
		}
		side := "right"
		if s.StarOnLeft {
			side = "left"
		}
		return side + " path ends in ⁺: base case and inductive step"
	case RuleAltSplit:
		return "alternative component split per branch"
	}
	return s.Note
}

func (s *Step) suffixStrings() (string, string) {
	cx, cy := pathexpr.Components(s.X), pathexpr.Components(s.Y)
	return exprOrEps(cx[len(cx)-s.SuffixI:]), exprOrEps(cy[len(cy)-s.SuffixJ:])
}

func (s *Step) prefixStrings() (string, string) {
	cx, cy := pathexpr.Components(s.X), pathexpr.Components(s.Y)
	return exprOrEps(cx[:len(cx)-s.SuffixI]), exprOrEps(cy[:len(cy)-s.SuffixJ])
}
