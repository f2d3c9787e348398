package guard

import (
	"fmt"
	"testing"

	"repro/internal/lang"
)

func ident(n string) *lang.Ident { return &lang.Ident{Name: n} }
func num(t string) *lang.NumLit  { return &lang.NumLit{Text: t} }
func bin(op string, l, r lang.Expr) *lang.BinaryExpr {
	return &lang.BinaryExpr{Op: op, L: l, R: r}
}
func not(x lang.Expr) *lang.UnaryExpr { return &lang.UnaryExpr{Op: "!", X: x} }

func atomStrings(atoms []Atom) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		if a.Neg {
			out[i] = "!(" + a.Canon + ")"
		} else {
			out[i] = a.Canon
		}
	}
	return out
}

func TestBranchAtomsCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		cond lang.Expr
		then []string
		els  []string
	}{
		{"ident", ident("mode"), []string{"mode"}, []string{"!(mode)"}},
		{"not", not(ident("mode")), []string{"!(mode)"}, []string{"mode"}},
		{"field", &lang.FieldAccess{Base: "p", Field: "flag"},
			[]string{"p->flag"}, []string{"!(p->flag)"}},
		// == is symmetric: operands sort to one canonical order.
		{"eq-sorted", bin("==", ident("y"), ident("x")),
			[]string{"x == y"}, []string{"!(x == y)"}},
		{"neq", bin("!=", ident("x"), ident("y")),
			[]string{"!(x == y)"}, []string{"x == y"}},
		// Ordered comparisons normalize to strict-less-than form.
		{"gt", bin(">", ident("a"), ident("b")),
			[]string{"b < a"}, []string{"!(b < a)"}},
		{"ge", bin(">=", ident("a"), ident("b")),
			[]string{"!(a < b)"}, []string{"a < b"}},
		{"le", bin("<=", ident("a"), ident("b")),
			[]string{"!(b < a)"}, []string{"b < a"}},
		// Conjunction splits only where it yields a conjunction of atoms.
		{"and", bin("&&", ident("a"), ident("b")),
			[]string{"a", "b"}, nil},
		{"or", bin("||", ident("a"), ident("b")),
			nil, []string{"!(a)", "!(b)"}},
		// NULL and literal operands render; calls do not.
		{"null", bin("==", ident("p"), &lang.NullLit{}),
			[]string{"NULL == p"}, []string{"!(NULL == p)"}},
		{"num", bin("<", ident("i"), num("10")),
			[]string{"i < 10"}, []string{"!(i < 10)"}},
		{"call-opaque", bin("==", ident("x"), &lang.CallExpr{Name: "f"}),
			nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			then, els := BranchAtoms(tc.cond)
			if got := fmt.Sprint(atomStrings(then)); got != fmt.Sprint(tc.then) {
				t.Errorf("then atoms = %v, want %v", got, tc.then)
			}
			if got := fmt.Sprint(atomStrings(els)); got != fmt.Sprint(tc.els) {
				t.Errorf("else atoms = %v, want %v", got, tc.els)
			}
		})
	}
}

func TestComplementaryFormsShareAPredicate(t *testing.T) {
	// a >= b on the then-edge and a < b on the then-edge must be the same
	// predicate with opposite signs, so the conflict check fires across
	// the different surface spellings.
	v := NewVersioner()
	ge, _ := BranchAtoms(bin(">=", ident("a"), ident("b")))
	lt, _ := BranchAtoms(bin("<", ident("a"), ident("b")))
	if len(ge) != 1 || len(lt) != 1 {
		t.Fatalf("atoms: %v %v", ge, lt)
	}
	pg := v.Intern(ge[0].Canon, ge[0].Vars, ge[0].Fields, nil)
	pl := v.Intern(lt[0].Canon, lt[0].Vars, lt[0].Fields, nil)
	if pg != pl {
		t.Fatalf("a>=b and a<b interned to distinct predicates")
	}
	if ge[0].Neg == lt[0].Neg {
		t.Fatalf("a>=b and a<b carry the same sign; want opposite")
	}
	s := Canon([]Ref{{P: pg, Neg: ge[0].Neg}})
	u := Canon([]Ref{{P: pl, Neg: lt[0].Neg}})
	if _, _, ok := Conflict(s, u); !ok {
		t.Fatalf("Conflict(%v, %v) = false, want true", s, u)
	}
}

func TestConflict(t *testing.T) {
	v := NewVersioner()
	p := v.Intern("mode", []string{"mode"}, nil, nil)
	q := v.Intern("flag", []string{"flag"}, nil, nil)
	pos := Canon([]Ref{{P: p}, {P: q}})
	negp := Canon([]Ref{{P: p, Neg: true}})
	if a, b, ok := Conflict(pos, negp); !ok || a.P != p || b.P != p {
		t.Fatalf("Conflict = %v %v %v, want p vs !p", a, b, ok)
	}
	if _, _, ok := Conflict(pos, Canon([]Ref{{P: q}})); ok {
		t.Fatalf("conflict between compatible sets")
	}
	if _, _, ok := Conflict(nil, negp); ok {
		t.Fatalf("conflict against empty set")
	}
	// A self-contradictory set conflicts with itself (dead code).
	dead := Canon([]Ref{{P: p}, {P: p, Neg: true}})
	if _, _, ok := Conflict(dead, dead); !ok {
		t.Fatalf("self-contradictory set not detected")
	}
}

func TestCanonSortsAndDedups(t *testing.T) {
	v := NewVersioner()
	p := v.Intern("a", []string{"a"}, nil, nil)
	q := v.Intern("b", []string{"b"}, nil, nil)
	s := Canon([]Ref{{P: q}, {P: p}, {P: q}, {P: p, Neg: true}})
	if len(s) != 3 {
		t.Fatalf("len = %d, want 3 (dedup)", len(s))
	}
	if s[0].P != p || s[0].Neg || s[1].P != p || !s[1].Neg || s[2].P != q {
		t.Fatalf("order = %v, want [a !(a) b]", s)
	}
}

func TestVersionerSeparatesModifiedPredicates(t *testing.T) {
	v := NewVersioner()
	vars := []string{"mode"}
	p1 := v.Intern("mode", vars, nil, nil)
	p2 := v.Intern("mode", vars, nil, nil)
	if p1 != p2 {
		t.Fatalf("same text, no modification: distinct predicates")
	}
	v.BumpVar("mode")
	p3 := v.Intern("mode", vars, nil, nil)
	if p3 == p1 {
		t.Fatalf("predicate survived a modification of its variable")
	}
	v.BumpVar("other")
	p4 := v.Intern("mode", vars, nil, nil)
	if p4 != p3 {
		t.Fatalf("unrelated assignment changed the version")
	}

	// Field-reading predicates react to field stores and to the
	// all-fields epoch; var-only predicates ignore both.
	fv, ff := []string{"p"}, []string{"flag"}
	f1 := v.Intern("p->flag", fv, ff, nil)
	v.BumpField("flag")
	f2 := v.Intern("p->flag", fv, ff, nil)
	if f1 == f2 {
		t.Fatalf("field predicate survived a store to its field")
	}
	v.BumpAllFields()
	f3 := v.Intern("p->flag", fv, ff, nil)
	if f3 == f2 {
		t.Fatalf("field predicate survived an opaque call")
	}
	p5 := v.Intern("mode", vars, nil, nil)
	if p5 != p4 {
		t.Fatalf("var-only predicate changed on heap events")
	}
}

func TestVersionerIsolatesWalks(t *testing.T) {
	a, b := NewVersioner(), NewVersioner()
	vars := []string{"mode"}
	pa := a.Intern("mode", vars, nil, nil)
	pb := b.Intern("mode", vars, nil, nil)
	if pa == pb {
		t.Fatalf("predicates from different walks unified")
	}
	// Each walk numbers its own predicates from 1.
	if pa.ID() != 1 || pb.ID() != 1 {
		t.Fatalf("IDs = %d, %d, want 1, 1", pa.ID(), pb.ID())
	}
	if q := a.Intern("flag", []string{"flag"}, nil, nil); q.ID() != 2 {
		t.Fatalf("second predicate of a walk has ID %d, want 2", q.ID())
	}
}
