// Condition canonicalization and predicate versioning: the translation
// from branch-condition syntax trees to guardable atoms, and the
// modification counters that make "same canonical text" imply "same
// run-time truth value".
package guard

import (
	"repro/internal/lang"
	"repro/internal/pathexpr"
)

// Atom is one guardable conjunct extracted from a branch condition: a
// canonical positive rendering plus the sign it carries on the edge being
// guarded, and the variables/fields its truth value depends on.
type Atom struct {
	Canon  string
	Neg    bool
	Vars   []string
	Fields []string
	// EqX/EqY name the comparands when the atom is a variable equality
	// "x == y" eligible for a prover-backed Fact; both empty otherwise.
	EqX, EqY string
}

// BranchAtoms decomposes an if condition into the atoms that hold on the
// then-edge (condition true) and on the else-edge (condition false).
//
// Decomposition is sound only in the direction that yields a conjunction:
// a && b splits on the true edge (both hold) but contributes nothing on
// the false edge (only the disjunction !a || !b holds); dually, a || b
// splits only on the false edge.  Comparisons are canonicalized so that
// syntactic negation pairs every form with its complement:
//
//	a > b   ≡  b < a          a != b  ≡  !(a == b)
//	a >= b  ≡  !(a < b)       a <= b  ≡  !(b < a)
//	!e      flips the sign of e's atoms
//
// and equality operands are sorted so "x == y" and "y == x" intern to one
// predicate.  Conditions outside the guardable fragment (calls, arithmetic
// beyond a renderable operand) contribute no atoms — the guard set just
// stays smaller, which is always sound.
func BranchAtoms(cond lang.Expr) (then, els []Atom) {
	collect(cond, false, &then)
	collect(cond, true, &els)
	return then, els
}

func collect(e lang.Expr, neg bool, out *[]Atom) {
	switch v := e.(type) {
	case *lang.Ident:
		*out = append(*out, Atom{Canon: v.Name, Neg: neg, Vars: []string{v.Name}})
	case *lang.FieldAccess:
		*out = append(*out, Atom{
			Canon:  v.Base + "->" + v.Field,
			Neg:    neg,
			Vars:   []string{v.Base},
			Fields: []string{v.Field},
		})
	case *lang.UnaryExpr:
		if v.Op == "!" {
			collect(v.X, !neg, out)
		}
	case *lang.BinaryExpr:
		collectBinary(v, neg, out)
	}
}

func collectBinary(v *lang.BinaryExpr, neg bool, out *[]Atom) {
	switch v.Op {
	case "&&":
		if !neg {
			collect(v.L, false, out)
			collect(v.R, false, out)
		}
	case "||":
		if neg {
			collect(v.L, true, out)
			collect(v.R, true, out)
		}
	case "==", "!=":
		l, lv, lf, lok := renderOperand(v.L)
		r, rv, rf, rok := renderOperand(v.R)
		if !lok || !rok {
			return
		}
		eqX, eqY := identName(v.L), identName(v.R)
		if l > r { // symmetric: one canonical operand order
			l, r = r, l
			eqX, eqY = eqY, eqX
		}
		a := Atom{
			Canon:  l + " == " + r,
			Neg:    neg != (v.Op == "!="),
			Vars:   append(lv, rv...),
			Fields: append(lf, rf...),
		}
		if eqX != "" && eqY != "" && eqX != eqY {
			a.EqX, a.EqY = eqX, eqY
		}
		*out = append(*out, a)
	case "<", ">", "<=", ">=":
		l, lv, lf, lok := renderOperand(v.L)
		r, rv, rf, rok := renderOperand(v.R)
		if !lok || !rok {
			return
		}
		// Normalize to strict-less-than form; >= and <= land on the
		// negation of the corresponding <.
		canonNeg := neg
		switch v.Op {
		case ">":
			l, r = r, l
		case ">=":
			canonNeg = !neg
		case "<=":
			l, r = r, l
			canonNeg = !neg
		}
		*out = append(*out, Atom{
			Canon:  l + " < " + r,
			Neg:    canonNeg,
			Vars:   append(lv, rv...),
			Fields: append(lf, rf...),
		})
	}
}

// renderOperand renders a comparison operand canonically, collecting the
// variables and fields it reads.  ok is false outside the renderable
// fragment (the atom is then dropped).
func renderOperand(e lang.Expr) (s string, vars, fields []string, ok bool) {
	switch v := e.(type) {
	case *lang.Ident:
		return v.Name, []string{v.Name}, nil, true
	case *lang.NumLit:
		return v.Text, nil, nil, true
	case *lang.NullLit:
		return "NULL", nil, nil, true
	case *lang.FieldAccess:
		return v.Base + "->" + v.Field, []string{v.Base}, []string{v.Field}, true
	case *lang.UnaryExpr:
		if v.Op == "-" {
			if n, ok := v.X.(*lang.NumLit); ok {
				return "-" + n.Text, nil, nil, true
			}
		}
	}
	return "", nil, nil, false
}

func identName(e lang.Expr) string {
	if id, ok := e.(*lang.Ident); ok {
		return id.Name
	}
	return ""
}

// Versioner tracks modification counters for one analysis walk.  Every
// assignment to a variable bumps its counter; every store through a field
// bumps the field's; an opaque call bumps the all-fields epoch.  A
// predicate's version hashes the counters of everything it reads, so two
// occurrences of the same condition text share a version — and hence a
// predicate — exactly when nothing they depend on changed in between.
// The versioner also owns the walk's predicate table (see Intern), so the
// predicates of one walk are never shared with another's.
type Versioner struct {
	varVer   map[string]uint64
	fieldVer map[string]uint64
	allEpoch uint64
	preds    map[predKey]*Pred
}

// predKey keys a walk's predicate table: canonical condition text plus
// version.
type predKey struct {
	cond string
	ver  uint64
}

// NewVersioner returns a fresh versioner with an empty predicate table.
func NewVersioner() *Versioner {
	return &Versioner{
		varVer:   make(map[string]uint64),
		fieldVer: make(map[string]uint64),
		preds:    make(map[predKey]*Pred),
	}
}

// Intern returns this walk's unique predicate for cond at the current
// version of the variables and fields it reads.  The first call for a
// (cond, version) fixes the predicate's variables, fields and fact and
// numbers it one past the walk's last predicate; later calls return the
// same *Pred.  A Versioner serves one walk and is not safe for concurrent
// use.
func (v *Versioner) Intern(cond string, vars, fields []string, eq *Fact) *Pred {
	key := predKey{cond: cond, ver: v.version(vars, fields)}
	if p, ok := v.preds[key]; ok {
		return p
	}
	p := &Pred{id: uint64(len(v.preds)) + 1, cond: cond, vars: vars, fields: fields, eq: eq}
	v.preds[key] = p
	return p
}

// BumpVar records an assignment to (or address-taking of) a variable.
func (v *Versioner) BumpVar(name string) { v.varVer[name]++ }

// BumpField records a store through the named field (any base).
func (v *Versioner) BumpField(field string) { v.fieldVer[field]++ }

// BumpAllFields records an event that may write arbitrary heap fields (an
// opaque call, a summary-less callee).
func (v *Versioner) BumpAllFields() { v.allEpoch++ }

// version hashes the current counters of the given variables and fields
// into a predicate version.  Field-reading predicates also absorb the
// all-fields epoch.
func (v *Versioner) version(vars, fields []string) uint64 {
	h := pathexpr.MixInit
	for _, x := range vars {
		h = mixString(h, x)
		h = pathexpr.Mix64(h, v.varVer[x])
	}
	for _, f := range fields {
		h = mixString(h, f)
		h = pathexpr.Mix64(h, v.fieldVer[f])
	}
	if len(fields) > 0 {
		h = pathexpr.Mix64(h, v.allEpoch)
	}
	return h
}

// mixString folds a string into the hash byte-wise (FNV-1a via Mix64).
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = pathexpr.Mix64(h, uint64(s[i]))
	}
	return pathexpr.Mix64(h, 0xff) // terminator
}
