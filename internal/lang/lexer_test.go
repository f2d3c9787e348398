package lang

import (
	"strings"
	"testing"
)

// TestParseErrorMessages pins the exact text of lexer and parser errors,
// positions included: tools match on them and goldens embed them.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			// The whole input is lexed before a parse error is reported,
			// so a lex error later in the file wins.
			name: "later lex error wins over earlier parse error",
			src:  "int f(int a) { return a }\n\nint g() { @ }",
			want: `3:11: unexpected character "@"`,
		},
		{
			// Columns count runes, not bytes: é and ü are two bytes each.
			name: "columns count runes after non-ASCII text",
			src:  "int f() { return 0; }\nint g(int a) { /* é ü */ return a;   @ }",
			want: `2:38: unexpected character "@"`,
		},
		{
			name: "axioms without a brace",
			src:  "struct T { struct T *n; axioms forall p, p.n <> p.eps; };",
			want: `1:32: expected '{' after axioms`,
		},
		{
			name: "non-ASCII identifier in type position",
			src:  "éé f() { }",
			want: `1:1: expected a type, found identifier "éé"`,
		},
		{
			name: "unterminated axioms block",
			src:  "struct T { struct T *n; axioms { forall p, p.n <> p.eps; ",
			want: `1:33: unterminated axioms block`,
		},
		{
			name: "unterminated block comment",
			src:  "int f() { }\n  /* never closed",
			want: `2:3: unterminated block comment`,
		},
		{
			name: "unterminated string",
			src:  `int f() { g("abc); }`,
			want: `1:13: unterminated string`,
		},
		{
			name: "parse error after multi-byte comment",
			src:  "/* ü */ int f() { return 1 }",
			want: `1:28: expected ';', found '}' "}"`,
		},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: Parse succeeded, want %q", c.name, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error = %q, want %q", c.name, err, c.want)
		}
	}
}

// TestNULIsNotEndOfInput: a NUL byte is an unexpected character at its
// position, never a silent end of input that hides the rest of the program.
func TestNULIsNotEndOfInput(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"int f(int a) { return a; }\x00 garbage @@@ {{{", `1:27: unexpected character "\x00"`},
		{"int f(int a) { return a;\x00 }", `1:25: unexpected character "\x00"`},
		{"int f() { }\n// comment\x00\nint g() { }", ""},
		{"int f() { } /* \x00 */", ""},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("Parse(%q) = %v, want success (NUL inside a comment)", c.src, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("Parse(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
}

// TestTokenTexts: token texts, including the raw axioms block, reach the
// AST unchanged when the source mixes multi-byte runes into identifiers,
// numbers and comments.
func TestTokenTexts(t *testing.T) {
	src := "struct Nœud { struct Nœud *suivant; axioms { forall p, p.suivant+ <> p.eps; } };\n" +
		"/* ∀ */ int été(struct Nœud *x) { x = x->suivant; return 12.5; }"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Struct("Nœud")
	if s == nil || s.Field("suivant") == nil || s.Axioms.Len() != 1 {
		t.Fatalf("struct = %+v", s)
	}
	fn := prog.Func("été")
	if fn == nil || fn.Params[0].Name != "x" || fn.Params[0].Type.Base != "Nœud" {
		t.Fatalf("func = %+v", fn)
	}
	ret := fn.Body.Stmts[1].(*ReturnStmt)
	if n, ok := ret.Value.(*NumLit); !ok || n.Text != "12.5" || n.Pos != (Pos{Line: 2, Col: 58}) {
		t.Errorf("return value = %#v", ret.Value)
	}
	if !strings.Contains(s.Axioms.Axioms[0].String(), "suivant") {
		t.Errorf("axiom = %v", s.Axioms.Axioms[0])
	}
}
