package pathexpr

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse parses a path expression in the paper's concrete syntax.
//
// Grammar:
//
//	expr   := cat ('|' cat)*
//	cat    := rep (('.' | juxtaposition) rep)*
//	rep    := atom ('*' | '+')*
//	atom   := IDENT | 'ε' | 'eps' | '(' expr ')'
//
// Identifiers are Go-style names (ncolE, L, nrowH).  Concatenation is
// written with '.', whitespace, or juxtaposition after a postfix operator or
// closing parenthesis (e.g. nrowE+ncolE*).  "eps" and "ε" denote the empty
// path.  An identifier parses as a single field name; to parse the paper's
// compact single-letter style ("LLN" meaning L·L·N) use ParseAlphabet with a
// declared field set.
func Parse(src string) (Expr, error) {
	p := &parser{src: src}
	return p.run()
}

// MustParse is Parse, panicking on error.  For tests and package literals.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ParseAlphabet parses src like Parse, but splits each identifier into a
// sequence of declared field names using greedy longest-match.  With fields
// {L, R, N}, "LLN" parses as L·L·N; with {ncolE, nrowE}, "nrowE+ncolE"
// parses as nrowE+·ncolE.  An identifier that cannot be fully decomposed
// into declared fields is an error.
func ParseAlphabet(src string, fields []string) (Expr, error) {
	p := &parser{src: src, fields: fields}
	return p.run()
}

// MustParseAlphabet is ParseAlphabet, panicking on error.
func MustParseAlphabet(src string, fields []string) Expr {
	e, err := ParseAlphabet(src, fields)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src    string
	pos    int
	fields []string // non-nil enables maximal-munch identifier splitting
}

func (p *parser) run() (Expr, error) {
	p.skipSpace()
	if p.eof() {
		return nil, p.errorf("empty path expression")
	}
	e, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.rest())
	}
	return Simplify(e), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("pathexpr: %s at offset %d in %q", fmt.Sprintf(format, args...), p.pos, p.src)
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) rest() string { return p.src[p.pos:] }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) parseAlt() (Expr, error) {
	first, err := p.parseCat()
	if err != nil {
		return nil, err
	}
	// A lone alternative is the common case (every raw-mode path); Or
	// would return it unchanged after interning it for duplicate checks.
	p.skipSpace()
	if p.peek() != '|' {
		return first, nil
	}
	alts := []Expr{first}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			break
		}
		p.pos++
		next, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	return Or(alts...), nil
}

func (p *parser) parseCat() (Expr, error) {
	var parts []Expr
	for {
		p.skipSpace()
		if p.peek() == '.' {
			p.pos++
			p.skipSpace()
		}
		if p.eof() || p.peek() == '|' || p.peek() == ')' {
			break
		}
		rep, err := p.parseRep()
		if err != nil {
			return nil, err
		}
		parts = append(parts, rep)
	}
	if len(parts) == 0 {
		return nil, p.errorf("expected path term")
	}
	return Cat(parts...), nil
}

func (p *parser) parseRep() (Expr, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '*':
			p.pos++
			atom = Rep(atom)
		case '+':
			p.pos++
			atom = Rep1(atom)
		default:
			return atom, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	p.skipSpace()
	switch {
	case p.eof():
		return nil, p.errorf("unexpected end of expression")
	case p.peek() == '(':
		p.pos++
		inner, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errorf("missing ')'")
		}
		p.pos++
		return inner, nil
	case strings.HasPrefix(p.rest(), "ε"):
		p.pos += len("ε")
		return Eps, nil
	}
	ident := p.scanIdent()
	if ident == "" {
		return nil, p.errorf("unexpected character %q", p.peek())
	}
	if ident == "eps" || ident == "epsilon" {
		return Eps, nil
	}
	if p.fields != nil {
		return p.splitIdent(ident)
	}
	return F(ident), nil
}

func (p *parser) scanIdent() string {
	start := p.pos
	for !p.eof() {
		r := rune(p.src[p.pos])
		if r == '_' || unicode.IsLetter(r) || (p.pos > start && unicode.IsDigit(r)) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

// splitIdent decomposes ident into declared field names by greedy
// longest-match with backtracking.
func (p *parser) splitIdent(ident string) (Expr, error) {
	if ident == "eps" || ident == "epsilon" {
		return Eps, nil
	}
	parts, ok := splitFields(ident, p.fields, nil)
	if !ok {
		return nil, p.errorf("identifier %q is not a sequence of declared fields %v", ident, p.fields)
	}
	return Cat(parts...), nil
}

// splitFields appends to acc one field node per declared field name
// spelling s, trying longer names first (so "ncolE" beats a hypothetical
// single-letter "n") and backtracking to the next shorter prefix when the
// rest does not decompose.  Declared names of equal length that both
// prefix s are the same string, so one try per length suffices.  On
// failure the returned slice is acc unchanged in length.
func splitFields(s string, fields []string, acc []Expr) ([]Expr, bool) {
	if s == "" {
		return acc, true
	}
	for limit := len(s) + 1; ; {
		best := ""
		for _, f := range fields {
			if f != "" && len(f) < limit && len(f) > len(best) && strings.HasPrefix(s, f) {
				best = f
			}
		}
		if best == "" {
			return acc, false
		}
		if out, ok := splitFields(s[len(best):], fields, append(acc, F(best))); ok {
			return out, true
		}
		limit = len(best)
	}
}
