package pathexpr

import "testing"

// TestParseAlphabetRenderings pins ParseAlphabet's output, as the interned
// node's canonical rendering, across the decompositions the field splitter
// must get right and the alternation shapes the parser builds, plus the
// exact error text for identifiers no field sequence spells.
func TestParseAlphabetRenderings(t *testing.T) {
	cases := []struct {
		name, src string
		fields    []string
		want      string // canonical rendering; "" when an error is expected
		wantErr   string
	}{
		// Longest-first choices that must be undone.
		{name: "backtrack one level", src: "abc", fields: []string{"a", "ab", "bc"}, want: "a.bc"},
		{name: "backtrack to shorter name", src: "ncolEx", fields: []string{"ncolE", "ncol", "n", "Ex"}, want: "ncol.Ex"},
		{name: "backtrack inside recursion", src: "aaaab", fields: []string{"aa", "aaa", "b"}, want: "aa.aa.b"},
		{name: "longest first wins", src: "nrowE+ncolE*", fields: []string{"ncolE", "nrowE"}, want: "nrowE+.ncolE*"},

		// Duplicate and empty declared names.
		{name: "duplicate field", src: "LLR", fields: []string{"L", "L", "R"}, want: "L.L.R"},
		{name: "empty field skipped", src: "LN", fields: []string{"", "L", "N"}, want: "L.N"},

		// Single versus multiple alternatives, nested parentheses.
		{name: "single alternative", src: "LLN", fields: []string{"L", "N"}, want: "L.L.N"},
		{name: "parenthesized single", src: "(LLN)", fields: []string{"L", "N"}, want: "L.L.N"},
		{name: "two alternatives", src: "L|N", fields: []string{"L", "N"}, want: "L|N"},
		{name: "duplicate alternatives", src: "LN|NL|LN", fields: []string{"L", "N"}, want: "L.N|N.L"},
		{name: "alternatives collapse", src: "L|L", fields: []string{"L", "N"}, want: "L"},
		{name: "nested under plus", src: "((L|N)R)+", fields: []string{"L", "N", "R"}, want: "((L|N).R)+"},
		{name: "nested under star", src: "(L(N|R)*)|N", fields: []string{"L", "N", "R"}, want: "L.(N|R)*|N"},
		{name: "nested alternations flatten", src: "((LR|N)|(R|LR))", fields: []string{"L", "N", "R"}, want: "L.R|N|R"},
		{name: "eps", src: "eps", fields: []string{"L"}, want: "ε"},
		{name: "eps dropped", src: "ε.LN", fields: []string{"L", "N"}, want: "L.N"},

		// Undecomposable identifiers keep their error text.
		{name: "no decomposition after backtracking", src: "abd", fields: []string{"a", "ab", "bc"},
			wantErr: `pathexpr: identifier "abd" is not a sequence of declared fields [a ab bc] at offset 3 in "abd"`},
		{name: "only empty fields", src: "L", fields: []string{""},
			wantErr: `pathexpr: identifier "L" is not a sequence of declared fields [] at offset 1 in "L"`},
		{name: "undeclared suffix", src: "LX", fields: []string{"L", "N"},
			wantErr: `pathexpr: identifier "LX" is not a sequence of declared fields [L N] at offset 2 in "LX"`},
		{name: "undeclared inside parens", src: "L.(NX)", fields: []string{"L", "N"},
			wantErr: `pathexpr: identifier "NX" is not a sequence of declared fields [L N] at offset 5 in "L.(NX)"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := ParseAlphabet(c.src, c.fields)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("ParseAlphabet(%q, %q) error = %v, want %s", c.src, c.fields, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseAlphabet(%q, %q): %v", c.src, c.fields, err)
			}
			if got := Intern(e).String(); got != c.want {
				t.Errorf("ParseAlphabet(%q, %q) = %s, want %s", c.src, c.fields, got, c.want)
			}
		})
	}
}
