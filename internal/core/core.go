// Package core implements APT's dependence test (paper §4.1, "deptest"): the
// public front door that combines the cheap structural checks with the
// theorem-proving core in package prover.
//
// Given two statement executions
//
//	S:  ... p->f ...        with p = H_p.Path_p
//	T:  ... q->g ...        with q = H_q.Path_q
//
// where S precedes T and at least one of the accesses is a write, deptest
// answers:
//
//	No    — provably no data dependence from S to T
//	Yes   — provably a data dependence (the accesses definitely collide)
//	Maybe — neither could be proved
package core

import (
	"fmt"

	"repro/internal/axiom"
	"repro/internal/guard"
	"repro/internal/pathexpr"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// Result is the three-valued answer of the dependence test.
type Result int

// Dependence test answers.
const (
	// Maybe: a dependence could not be ruled out (the conservative answer).
	Maybe Result = iota
	// No: provably independent.
	No
	// Yes: provably dependent.
	Yes
)

func (r Result) String() string {
	switch r {
	case No:
		return "No"
	case Yes:
		return "Yes"
	case Maybe:
		return "Maybe"
	}
	return "invalid"
}

// DepKind classifies a dependence by the read/write pattern of S and T.
type DepKind int

// Dependence kinds.
const (
	// NoAccessConflict: neither access writes; no data dependence of any
	// kind can exist regardless of aliasing.
	NoAccessConflict DepKind = iota
	// Flow: S writes, T reads (true dependence).
	Flow
	// Anti: S reads, T writes.
	Anti
	// Output: both write.
	Output
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case NoAccessConflict:
		return "none (read-read)"
	}
	return "invalid"
}

// HandleRelation states what is known about the two anchor handles.
type HandleRelation int

// Handle relations.
const (
	// SameHandle: H_p and H_q denote the same vertex (the common-handle case
	// the paper develops in detail).
	SameHandle HandleRelation = iota
	// DistinctHandles: H_p and H_q are known to denote different vertices.
	DistinctHandles
	// UnknownHandles: nothing is known; a No answer then requires proofs
	// for both the same-vertex and distinct-vertex cases.
	UnknownHandles
)

// Access describes one side of a dependence query: the access p->Field where
// p is reached by Handle.Path.
type Access struct {
	// Handle names the anchor vertex (e.g. "_hroot").
	Handle string
	// Path is the access path from the handle to p.
	Path pathexpr.Expr
	// Field is the accessed field of *p.
	Field string
	// Type is the structure type of *p; "" when unknown.  Accesses through
	// pointers of different structure types cannot collide (the paper's
	// first check, valid under ANSI C assumptions).
	Type string
	// IsWrite reports whether the access stores to p->Field.
	IsWrite bool
}

// String renders "read h.path->f" / "write h.path->f" by concatenation: a
// served batch renders every result's two accesses, and fmt's reflection
// was a measurable share of that.
func (a Access) String() string {
	op := "read "
	if a.IsWrite {
		op = "write "
	}
	path := "%!s(<nil>)" // fmt's rendering of a nil path, kept byte-identical
	if a.Path != nil {
		path = a.Path.String()
	}
	return op + a.Handle + "." + path + "->" + a.Field
}

// Query is one dependence question: does T depend on S?
type Query struct {
	// Axioms is the axiom set valid across the query's window (§3.4).
	// Required: a query without one is answered Maybe.
	Axioms *axiom.Set
	S, T   Access
	// Relation describes the two handles when they differ; ignored when the
	// handle names are equal.
	Relation HandleRelation
	// FieldsOverlap optionally overrides the may-overlap test between the
	// two accessed data fields; nil means fields overlap iff their names are
	// equal (distinct fields of a struct occupy disjoint memory).
	FieldsOverlap func(f, g string) bool
	// SGuards and TGuards are the dominating branch predicates of the two
	// accesses (nil = unconstrained).  The SAT-lite path-sensitivity tier
	// answers No when the sets contain the same predicate with opposite
	// signs (the accesses lie on mutually exclusive paths) or when a guard
	// is refuted by the prover (the guarded access is dead code).  The
	// caller is responsible for only passing guards whose truth values are
	// stable across the two execution instances being compared (see
	// analysis.Access.Guards vs InvGuards).
	SGuards, TGuards guard.Set
}

// Swapped returns the query with its two accesses (and their guards)
// exchanged: the orientation a symmetric client, judging both ⟨a,b⟩ and
// ⟨b,a⟩, asks next.  The window, handle relation and field-overlap test
// carry over.
func (q Query) Swapped() Query {
	q.S, q.T = q.T, q.S
	q.SGuards, q.TGuards = q.TGuards, q.SGuards
	return q
}

// Outcome reports the answer with its justification.
type Outcome struct {
	Result Result
	Kind   DepKind
	// Reason is a one-line human-readable justification.
	Reason string
	// Proof is the disjointness derivation backing a No from the theorem
	// prover, or the failed attempt backing a Maybe; nil when the answer
	// came from a structural check.
	Proof *prover.Proof
	// AuxProof is the distinct-handle proof when Relation is UnknownHandles
	// (a No then needs both cases).
	AuxProof *prover.Proof
	// GuardUpgraded marks a definite answer produced by the
	// path-sensitivity tier (contradictory or infeasible guards) — a
	// verdict the guard-free test could have left at Maybe.
	GuardUpgraded bool
}

// Tester runs dependence queries, each under the axiom set it carries
// (the §3.4 window valid across its two statements), reusing one prover
// per set across queries; a prover keeps only facts derived from its
// axioms, never a proof.  Proofs are reused through a proof memo: the
// tester's own, built on its first proof, unless SetProofMemo shares one
// or turns memoization off.  A query without a set is answered Maybe.  Not
// safe for concurrent use.
type Tester struct {
	axioms *axiom.Set
	opts   prover.Options
	memo   *Memo
	// memoSet records a SetProofMemo call, after which a nil memo means
	// no memoization rather than a private memo not yet built.
	memoSet bool
	// provers caches per-window provers by axiom-set identity.
	provers map[uint64]*prover.Prover
	// VerifyProofs re-validates every prover-backed No with the independent
	// proof checker before trusting it; a derivation that fails to check
	// degrades the answer to Maybe.  Defense in depth for the one failure
	// mode a dependence test must never have.
	VerifyProofs bool
	// deptests, answers (indexed by Result) and guardUpgrades book
	// core.deptests, core.answer_<Result> and core.guard_upgrades; nil
	// without telemetry.
	deptests, guardUpgrades *telemetry.Counter
	answers                 [Yes + 1]*telemetry.Counter
}

// NewTester builds a Tester.  The set only backs Prover and Axioms (proof
// rendering, loop-carried query construction); queries are answered under
// their own Axioms, never under it.  A nil set is valid.
func NewTester(axioms *axiom.Set, opts prover.Options) *Tester {
	t := &Tester{axioms: axioms, opts: opts, provers: map[uint64]*prover.Prover{}}
	if reg := opts.Telemetry.Metrics(); reg != nil {
		t.deptests = reg.Counter("core.deptests")
		t.guardUpgrades = reg.Counter("core.guard_upgrades")
		for r := range t.answers {
			t.answers[r] = reg.Counter("core.answer_" + Result(r).String())
		}
	}
	return t
}

// SetProofMemo routes the tester's theorem-proving calls through m, a
// proof memo shared with other testers, instead of the tester's own.  A
// nil m turns memoization off: every query then searches afresh, in the
// caller's orientation, which is what the differential and swap tests
// compare the memo against.  Returns the tester for chaining.
func (t *Tester) SetProofMemo(m *Memo) *Tester {
	t.memo = m
	t.memoSet = true
	return t
}

// proverFor returns the prover for an axiom window together with the
// window's identity (the proof-memo namespace).
func (t *Tester) proverFor(axioms *axiom.Set) (*prover.Prover, uint64) {
	id := axioms.ID()
	if p, ok := t.provers[id]; ok {
		return p, id
	}
	p := prover.New(axioms, t.opts)
	t.provers[id] = p
	return p, id
}

// Prover exposes the theorem prover of the tester's own axiom set (for
// proof rendering and for clients like the baselines that certify
// structure properties); nil when the tester was built without one.
func (t *Tester) Prover() *prover.Prover {
	if t.axioms == nil {
		return nil
	}
	p, _ := t.proverFor(t.axioms)
	return p
}

// Axioms returns the tester's own axiom set.
func (t *Tester) Axioms() *axiom.Set { return t.axioms }

// DepTest answers a dependence query, following §4.1:
//
//  0. no axiom set on the query        → Maybe (nothing to prove under)
//  1. different structure types        → No
//  2. non-overlapping data fields      → No
//  3. neither access writes            → No (read-read)
//  4. identical single-vertex paths    → Yes
//  5. proveDisj succeeds               → No
//  6. otherwise                        → Maybe
//
// A streaming trace receives one "core.deptest" event per query under the
// Telemetry set's Parent (the engine.worker span of a batch, the deptest
// phase of aptdep); a retaining trace keeps no events, so a served tree
// holds the query's prover.prove spans alone.
func (t *Tester) DepTest(q Query) Outcome {
	out := t.count(t.depTest(q))
	if rt := t.opts.Telemetry.Trace(); rt.Streaming() {
		rt.Event("core.deptest", t.opts.Telemetry.Parent(),
			telemetry.String("s", q.S.String()),
			telemetry.String("t", q.T.String()),
			telemetry.String("result", out.Result.String()),
			telemetry.String("kind", out.Kind.String()),
			telemetry.String("reason", out.Reason))
	}
	return out
}

// count books one answered query.
func (t *Tester) count(out Outcome) Outcome {
	t.deptests.Add(1)
	t.answers[out.Result].Add(1)
	if out.GuardUpgraded {
		t.guardUpgrades.Add(1)
	}
	return out
}

func (t *Tester) depTest(q Query) Outcome {
	kind := Classify(q.S, q.T)
	out := Outcome{Kind: kind}
	if q.Axioms == nil {
		out.Result = Maybe
		out.Reason = "query carries no axiom set; dependence assumed"
		return out
	}
	prv, axID := t.proverFor(q.Axioms)
	if t.memo == nil && !t.memoSet {
		t.memo = NewMemo(1, 0, t.opts.Telemetry)
	}
	prove := func(form prover.Form, x, y *pathexpr.Node) *prover.Proof {
		if t.memo == nil {
			return prv.ProveNodes(form, x, y)
		}
		return t.memo.Prove(prv, axID, form, x, y)
	}

	if kind == NoAccessConflict {
		out.Result = No
		out.Reason = "neither access writes; no data dependence possible"
		return out
	}
	if q.S.Type != "" && q.T.Type != "" && q.S.Type != q.T.Type {
		out.Result = No
		out.Reason = fmt.Sprintf("pointer types differ (%s vs %s)", q.S.Type, q.T.Type)
		return out
	}
	overlap := q.FieldsOverlap
	if overlap == nil {
		overlap = func(f, g string) bool { return f == g }
	}
	if !overlap(q.S.Field, q.T.Field) {
		out.Result = No
		out.Reason = fmt.Sprintf("fields %s and %s do not overlap", q.S.Field, q.T.Field)
		return out
	}

	verified := func(proofs ...*prover.Proof) bool {
		if !t.VerifyProofs {
			return true
		}
		for _, pf := range proofs {
			if err := prv.CheckProof(pf); err != nil {
				out.Reason = fmt.Sprintf("derivation failed independent checking (%v); degraded to Maybe", err)
				return false
			}
		}
		return true
	}

	// Path-sensitivity tier 1 (syntactic): the two guard sets contain one
	// predicate with opposite signs, so the accesses lie on mutually
	// exclusive control-flow paths — no execution performs both.  Checked
	// before the aliasing tiers because it wins even when the access paths
	// are identical.
	if rs, rt, ok := guard.Conflict(q.SGuards, q.TGuards); ok {
		out.Result = No
		out.GuardUpgraded = true
		out.Reason = fmt.Sprintf(
			"contradictory guards: S executes only under %s, T only under %s; the accesses lie on mutually exclusive paths",
			rs, rt)
		return out
	}

	// Path-sensitivity tier 2 (prover-backed): a pointer-comparison guard
	// refuted by the aliasing axioms makes its access dead code.
	for _, side := range [2]struct {
		name string
		set  guard.Set
	}{{"S", q.SGuards}, {"T", q.TGuards}} {
		ref, why, pf, ok := t.refuteGuard(side.set, prv, prove, verified)
		if !ok {
			continue
		}
		out.Result = No
		out.GuardUpgraded = true
		out.Proof = pf
		out.Reason = fmt.Sprintf("guard %s on %s is infeasible: %s; the guarded access never executes",
			ref, side.name, why)
		return out
	}

	rel := q.Relation
	if q.S.Handle == q.T.Handle && q.S.Handle != "" {
		rel = SameHandle
	}

	// The two paths are interned once, for the aliasing check and every
	// proof form alike.
	sp, tp := pathexpr.Intern(q.S.Path), pathexpr.Intern(q.T.Path)

	// Definite dependence: same handle, and the paths provably denote the
	// same single vertex (identical singleton paths, or words congruent
	// under the equality axioms).
	if rel == SameHandle && prv.DefinitelyAliased(sp, tp) {
		out.Result = Yes
		out.Reason = "access paths denote the same vertex"
		return out
	}

	switch rel {
	case SameHandle:
		proof := prove(prover.SameSrc, sp, tp)
		out.Proof = proof
		if proof.Result == prover.Proved && verified(proof) {
			out.Result = No
			out.Reason = "disjointness theorem proved (common handle)"
			return out
		}
	case DistinctHandles:
		proof := prove(prover.DiffSrc, sp, tp)
		out.Proof = proof
		if proof.Result == prover.Proved && verified(proof) {
			out.Result = No
			out.Reason = "disjointness theorem proved (distinct handles)"
			return out
		}
	case UnknownHandles:
		same := prove(prover.SameSrc, sp, tp)
		diff := prove(prover.DiffSrc, sp, tp)
		out.Proof, out.AuxProof = same, diff
		if same.Result == prover.Proved && diff.Result == prover.Proved && verified(same, diff) {
			out.Result = No
			out.Reason = "disjointness proved for both same- and distinct-handle cases"
			return out
		}
	}

	out.Result = Maybe
	if out.Reason == "" {
		out.Reason = "no proof found; dependence assumed"
	}
	return out
}

// refuteGuard looks for a guard reference in s whose pointer-comparison
// fact the prover refutes under the query's axiom window:
//
//   - a positive "x == y" whose branch-time paths are provably disjoint
//     (x and y could not have denoted the same vertex), or
//   - a negated "x == y" whose branch-time paths definitely alias (x and y
//     necessarily denoted the same vertex).
//
// Sound because the fact's paths were snapshotted when the comparison was
// evaluated, and the window's axioms are a subset of the axioms valid at
// that (quiescent) point.
func (t *Tester) refuteGuard(
	s guard.Set,
	prv *prover.Prover,
	prove func(form prover.Form, x, y *pathexpr.Node) *prover.Proof,
	verified func(...*prover.Proof) bool,
) (guard.Ref, string, *prover.Proof, bool) {
	for _, r := range s {
		eq := r.P.Eq()
		if eq == nil {
			continue
		}
		xn, yn := pathexpr.Intern(eq.XPath), pathexpr.Intern(eq.YPath)
		if !r.Neg {
			pf := prove(prover.SameSrc, xn, yn)
			if pf.Result == prover.Proved && verified(pf) {
				why := fmt.Sprintf("%s and %s provably denote distinct vertices (%s.%s <> %s.%s)",
					eq.X, eq.Y, eq.Handle, eq.XPath, eq.Handle, eq.YPath)
				return r, why, pf, true
			}
		} else if prv.DefinitelyAliased(xn, yn) {
			why := fmt.Sprintf("%s and %s provably denote the same vertex (%s.%s = %s.%s)",
				eq.X, eq.Y, eq.Handle, eq.XPath, eq.Handle, eq.YPath)
			return r, why, nil, true
		}
	}
	return guard.Ref{}, "", nil, false
}

// Classify reports the dependence kind of an access pair from its
// read/write pattern alone (no aliasing reasoning).
func Classify(s, t Access) DepKind {
	switch {
	case s.IsWrite && t.IsWrite:
		return Output
	case s.IsWrite:
		return Flow
	case t.IsWrite:
		return Anti
	default:
		return NoAccessConflict
	}
}

// LoopCarried builds the query for a loop-carried self-dependence of a
// statement whose per-iteration access path is body, anchored at a handle
// fixed before the loop, where the loop's induction pointer advances by inc
// each iteration (§5: iterations i < j access H.body and H.inc⁺body).
func LoopCarried(axioms *axiom.Set, handle string, inc, body pathexpr.Expr, field string, isWrite bool) Query {
	early := Access{Handle: handle, Path: body, Field: field, IsWrite: isWrite}
	late := Access{
		Handle:  handle,
		Path:    pathexpr.Cat(pathexpr.Rep1(inc), body),
		Field:   field,
		IsWrite: isWrite,
	}
	return Query{Axioms: axioms, S: early, T: late}
}
