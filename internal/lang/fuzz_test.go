package lang

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParse: the mini-C parser must never panic; accepted programs must have
// well-formed ASTs (every function has a body); rejected programs must fail
// with a positioned *ParseError so tools can report the failure as a
// source-anchored diagnostic instead of crashing.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`struct T { struct T *n; int v; }; void f(struct T *x) { x = x->n; }`,
		`struct T { struct T *n; axioms { forall p, p.n <> p.n; } };`,
		section33Src,
		`void g() { int i; int *p; p = &i; *p = 1; }`,
		`void w(struct T *x) { while (x != NULL) { L: x = x->n; } }`,
		`struct A { struct B *x; }; struct B { struct A *y; };`,
		`void f() { if (1 > 2) { } else { } return; }`,
		``, `struct`, `void f( {`, `axioms`,
		// Hardening corpus: inputs that historically stress recursive descent
		// and the raw-axioms re-lexing path.
		`void f() { x = ((((((1)))))); }`,
		`void f() { x = !!!!!-!-1; }`,
		`void f() { { { { return; } } } }`,
		`void f() { while (1) while (1) while (1) ; }`,
		`struct T { axioms { forall p, p.((((n)))) <> p.eps; } };`,
		`struct T { axioms { {nested braces} } };`,
		"struct T { axioms { forall p, p.n <> p.eps; } ", // unterminated
		`void f() { x = malloc(sizeof(struct T)); }`,
		`void f() { x = y @ z; }`,
		"/* unterminated", `"dangling`,
		`void f() { x->a->b = 1; }`,
		"int f() { }\x00 int g() { }",
		strings.Repeat("(", 64) + strings.Repeat(")", 64),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse error is not a *ParseError: %T %v", err, err)
			}
			if pe.Pos.Line < 1 || pe.Pos.Col < 1 {
				t.Fatalf("ParseError without a source position: %+v", pe)
			}
			if pos, ok := ErrPos(err); !ok || pos != pe.Pos {
				t.Fatalf("ErrPos(%v) = %v, %v", err, pos, ok)
			}
			return
		}
		for _, fn := range prog.Funcs {
			if fn.Body == nil {
				t.Fatalf("accepted function %q without a body", fn.Name)
			}
		}
		for _, sd := range prog.Structs {
			if sd.Name == "" {
				t.Fatal("accepted unnamed struct")
			}
		}
	})
}

// TestDeepNestingIsAnErrorNotACrash: pathological nesting must be rejected
// with a positioned error instead of exhausting the goroutine stack.
func TestDeepNestingIsAnErrorNotACrash(t *testing.T) {
	cases := []string{
		"void f() { x = " + strings.Repeat("(", 200000) + "1;",
		"void f() { x = " + strings.Repeat("!", 200000) + "1; }",
		"void f() " + strings.Repeat("{ ", 200000),
		"void f() { " + strings.Repeat("while (1) ", 200000) + "; }",
	}
	for i, src := range cases {
		_, err := Parse(src)
		if err == nil {
			t.Fatalf("case %d: deeply nested input accepted", i)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("case %d: error is %T, want *ParseError", i, err)
		}
	}
}
