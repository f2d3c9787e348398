// Package guard implements the path-sensitivity layer of the dependence
// test (Yao et al., "Efficient Path-Sensitive Data-Dependence Analysis"):
// sparse guard sets attached to abstract accesses.
//
// A guard is an interned branch predicate — the condition of an if
// statement that dominates an access — paired with a sign: positive on the
// then-edge, negated on the else-edge.  Two accesses whose guard sets
// contain the same predicate with opposite signs lie on mutually exclusive
// control-flow paths, so no single execution performs both and the
// dependence between them is infeasible regardless of what the aliasing
// prover can or cannot show.
//
// Predicates belong to one analysis walk: each walk's Versioner interns
// them in a table it owns, so they live and die with the walk's result and
// two walks never share one.  Within a walk, predicate identity is
// (canonical condition text, version), where the version is a hash of the
// modification counters of every variable and field the condition reads
// (see Versioner in cond.go).  Two guard references therefore share a
// predicate only when the condition text is identical AND nothing the
// condition depends on was modified between the two program points —
// which is exactly the regime in which "same text" implies "same run-time
// truth value".  A reassignment of a condition variable bumps its
// counter, the version changes, and the stale predicate can never again
// pair (or conflict) with fresh ones.  Predicate IDs order a guard set
// (Canon); one walk builds every set, so they need be unique only within
// it.
//
// A predicate over pointer variables may additionally carry a Fact: the
// access paths the two comparands held at the branch point, when both were
// reachable from one common handle.  The SAT-lite second tier in core
// discharges these through the existing prover — a guard "x == y" whose
// comparand paths are provably disjoint is infeasible (the guarded code is
// dead), and a guard "x != y" whose comparand paths are definitely aliased
// likewise.
package guard

import (
	"sort"
	"strings"

	"repro/internal/pathexpr"
)

// Fact is the pointer-comparison evidence attached to an equality
// predicate "x == y": the access paths the two comparands held at the
// branch point, relative to one common handle.  The prover can refute the
// predicate (paths disjoint ⇒ x == y never holds) or its negation (paths
// definitely aliased ⇒ x != y never holds).
type Fact struct {
	X, Y         string        // comparand variable names
	XPath, YPath pathexpr.Expr // their paths from the common handle
	Handle       string        // the common handle (diagnostic use only)
}

// Pred is an interned guard predicate.  Preds are immutable and unique per
// (analysis walk, canonical condition, version): comparing two with ==
// decides whether they denote the same run-time truth value.
type Pred struct {
	id     uint64
	cond   string
	vars   []string
	fields []string
	eq     *Fact
}

// ID returns the predicate's identity within its walk: the walk numbers
// its predicates 1, 2, … in the order it interns them, so IDs are unique
// within a walk (and within any guard set, which one walk builds) but
// repeat across walks.
func (p *Pred) ID() uint64 { return p.id }

// Cond returns the canonical positive rendering of the condition.
func (p *Pred) Cond() string { return p.cond }

// Vars returns the variables the condition reads.
func (p *Pred) Vars() []string { return p.vars }

// Fields returns the struct fields the condition reads.
func (p *Pred) Fields() []string { return p.fields }

// Eq returns the pointer-comparison fact, or nil for non-pointer
// predicates.
func (p *Pred) Eq() *Fact { return p.eq }

// Ref is one signed guard reference: predicate p held true (then-edge) or
// false (else-edge) on every path reaching the guarded point.
type Ref struct {
	P   *Pred
	Neg bool
}

// String renders the reference for diagnostics: the canonical condition,
// wrapped in !(...) when negated.
func (r Ref) String() string {
	if r.P == nil {
		return "<nil>"
	}
	if r.Neg {
		return "!(" + r.P.Cond() + ")"
	}
	return r.P.Cond()
}

// Set is a sorted, deduplicated conjunction of guard references — the
// dominating branch facts of one abstract access.  The zero value (nil) is
// the empty set ⊤: no path constraints, every query behaves exactly as it
// did before the path-sensitivity layer.
type Set []Ref

// Canon builds a Set from an unordered reference slice: sorted by
// (predicate ID, sign) with exact duplicates removed.  The input is not
// modified.
func Canon(refs []Ref) Set {
	if len(refs) == 0 {
		return nil
	}
	s := make(Set, 0, len(refs))
	s = append(s, refs...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].P.id != s[j].P.id {
			return s[i].P.id < s[j].P.id
		}
		return !s[i].Neg && s[j].Neg
	})
	out := s[:0]
	for i, r := range s {
		if i > 0 && r == s[i-1] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Filter returns the subset of s for which keep returns true (nil when
// empty).  s is not modified.
func (s Set) Filter(keep func(Ref) bool) Set {
	var out Set
	for _, r := range s {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// String renders the conjunction for diagnostics.
func (s Set) String() string {
	if len(s) == 0 {
		return "⊤"
	}
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, " && ")
}

// Conflict reports whether the two guard sets contain the same predicate
// with opposite signs — the syntactic-negation tier of the SAT-lite check.
// On success it returns the conflicting references (one from each set).
// Conflict(s, s) also detects a self-contradictory set (dead code).
func Conflict(a, b Set) (Ref, Ref, bool) {
	// Sets are tiny (nesting depth of the guarded access); the quadratic
	// walk beats anything with allocation.
	for _, ra := range a {
		for _, rb := range b {
			if ra.P == rb.P && ra.Neg != rb.Neg {
				return ra, rb, true
			}
		}
	}
	return Ref{}, Ref{}, false
}
