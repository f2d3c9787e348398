package lang

import (
	"unicode"
	"unicode/utf8"
)

// eof is what the lexer reads past the end of the source.  It is not a
// rune any input can contain, so a NUL byte is an ordinary (unexpected)
// character rather than a silent end of input.
const eof rune = -1

// lexer tokenizes mini-C source on demand: each next call scans one token
// out of src, and token texts are substrings of src.  The contents of an
// "axioms { ... }" block form a different sub-language ('.', '|', '<>',
// postfix '+'/'*'), so the block body comes out as a single raw STRING
// token between the braces, re-parsed by package axiom.
type lexer struct {
	src string
	// pos is the byte offset of the next rune; line and col are its
	// position, col counting runes.
	pos, line, col int
	// axioms is the raw-block state: afterAxioms once 'axioms' has been
	// scanned (a '{' must follow), inAxioms once that '{' has (the body
	// comes next, as one STRING token).
	axioms int
	// err is the first lex error.  From then on every token is EOF.
	err *ParseError
}

// Raw-block states of lexer.axioms.
const (
	outsideAxioms = iota
	afterAxioms
	inAxioms
)

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// next scans the next token.  On a lex error it records the error and
// returns EOF, as it does for every call after.
func (l *lexer) next() Token {
	if l.err != nil {
		return Token{Kind: EOF, Pos: l.here()}
	}
	switch l.axioms {
	case afterAxioms:
		t := l.scan()
		if l.err == nil && t.Kind != LBrace {
			return l.fail(parseErrorf(t.Pos, "expected '{' after axioms"))
		}
		l.axioms = inAxioms
		return t
	case inAxioms:
		l.axioms = outsideAxioms
		return l.rawUntilBrace()
	}
	t := l.scan()
	if t.Kind == KwAxioms {
		l.axioms = afterAxioms
	}
	return t
}

// drain scans to the end of the source, so that a lex error anywhere in it
// is recorded.
func (l *lexer) drain() {
	for l.next().Kind != EOF {
	}
}

func (l *lexer) fail(err *ParseError) Token {
	l.err = err
	return Token{Kind: EOF, Pos: err.Pos}
}

// rawUntilBrace consumes source text up to the matching '}', which it
// leaves for the next scan, and returns the text as a STRING token.
func (l *lexer) rawUntilBrace() Token {
	start := l.here()
	off := l.pos
	depth := 1
	for {
		switch l.at() {
		case eof:
			return l.fail(parseErrorf(start, "unterminated axioms block"))
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return Token{Kind: STRING, Text: runeText(l.src[off:l.pos]), Pos: start}
			}
		}
		l.advance()
	}
}

// runeText returns s as the token text.  Invalid UTF-8 reads as one
// U+FFFD per bad byte, as it does everywhere else in the lexer.
func runeText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// at returns the rune at the read position, eof past the end.
func (l *lexer) at() rune {
	if l.pos >= len(l.src) {
		return eof
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// peek1 returns the rune after the one at the read position, eof past the
// end.  It is meaningful only when the rune at the read position is ASCII,
// the only case where a two-rune token can start.
func (l *lexer) peek1() rune {
	if l.pos+1 >= len(l.src) {
		return eof
	}
	if c := l.src[l.pos+1]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos+1:])
	return r
}

// advance moves past one rune: one column, or to the next line after a
// newline.
func (l *lexer) advance() {
	if l.pos >= len(l.src) {
		return
	}
	c := l.src[l.pos]
	switch {
	case c == '\n':
		l.line++
		l.col = 1
		l.pos++
		return
	case c < utf8.RuneSelf:
		l.pos++
	default:
		_, n := utf8.DecodeRuneInString(l.src[l.pos:])
		l.pos += n
	}
	l.col++
}

func (l *lexer) skipSpaceAndComments() {
	for {
		switch c := l.at(); {
		case c == eof:
			return
		case unicode.IsSpace(c):
			l.advance()
		case c == '/' && l.peek1() == '/':
			for c := l.at(); c != '\n' && c != eof; c = l.at() {
				l.advance()
			}
		case c == '/' && l.peek1() == '*':
			start := l.here()
			l.advance()
			l.advance()
			for !(l.at() == '*' && l.peek1() == '/') {
				if l.at() == eof {
					l.fail(parseErrorf(start, "unterminated block comment"))
					return
				}
				l.advance()
			}
			l.advance()
			l.advance()
		default:
			return
		}
	}
}

func (l *lexer) here() Pos { return Pos{Line: l.line, Col: l.col} }

// scan lexes one token of the mini-C language proper.
func (l *lexer) scan() Token {
	if l.skipSpaceAndComments(); l.err != nil {
		return Token{Kind: EOF, Pos: l.err.Pos}
	}
	pos := l.here()
	start := l.pos
	c := l.at()
	switch {
	case c == eof:
		return Token{Kind: EOF, Pos: pos}
	case unicode.IsLetter(c) || c == '_':
		for c := l.at(); unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'; c = l.at() {
			l.advance()
		}
		text := l.src[start:l.pos]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}
	case unicode.IsDigit(c):
		for c := l.at(); unicode.IsDigit(c) || c == '.'; c = l.at() {
			l.advance()
		}
		return Token{Kind: NUMBER, Text: l.src[start:l.pos], Pos: pos}
	case c == '"':
		l.advance()
		body := l.pos
		for l.at() != '"' {
			if l.at() == eof {
				return l.fail(parseErrorf(pos, "unterminated string"))
			}
			l.advance()
		}
		text := runeText(l.src[body:l.pos])
		l.advance()
		return Token{Kind: STRING, Text: text, Pos: pos}
	}

	k, n := punct(c, l.peek1())
	if n == 0 {
		return l.fail(parseErrorf(pos, "unexpected character %q", string(c)))
	}
	for i := 0; i < n; i++ {
		l.advance()
	}
	return Token{Kind: k, Text: l.src[start:l.pos], Pos: pos}
}

// punct returns the punctuation or operator token starting with c (then
// next) and its length in runes, 0 if c starts none.
func punct(c, next rune) (Kind, int) {
	switch c {
	case '{':
		return LBrace, 1
	case '}':
		return RBrace, 1
	case '(':
		return LParen, 1
	case ')':
		return RParen, 1
	case ';':
		return Semi, 1
	case ',':
		return Comma, 1
	case '*':
		return Star, 1
	case ':':
		return Colon, 1
	case '+':
		return Plus, 1
	case '/':
		return Slash, 1
	case '-':
		if next == '>' {
			return Arrow, 2
		}
		return Minus, 1
	case '=':
		if next == '=' {
			return EqEq, 2
		}
		return Assign, 1
	case '<':
		if next == '=' {
			return Le, 2
		}
		return Lt, 1
	case '>':
		if next == '=' {
			return Ge, 2
		}
		return Gt, 1
	case '!':
		if next == '=' {
			return NotEq, 2
		}
		return Bang, 1
	case '&':
		if next == '&' {
			return AmpAmp, 2
		}
		return Amp, 1
	case '|':
		if next == '|' {
			return PipePipe, 2
		}
	}
	return 0, 0
}
