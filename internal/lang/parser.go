package lang

import (
	"strings"

	"repro/internal/axiom"
)

// Parse parses a mini-C translation unit.
func Parse(src string) (*Program, error) {
	p := newParser(src)
	prog, err := p.program()
	if err != nil {
		// The first lex error in the file wins over any parse error, as if
		// the whole file had been lexed first.
		p.lex.drain()
	}
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	return prog, err
}

// MustParse is Parse, panicking on error.  For tests and examples.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// parser is a recursive-descent parser that pulls tokens from the lexer
// through a window of the current token and two lookahead tokens (enough
// for "struct NAME {").
type parser struct {
	lex *lexer
	// win is a ring: win[cur] is the current token, the next two follow.
	win   [3]Token
	cur   int
	depth int
}

func newParser(src string) *parser {
	p := &parser{lex: newLexer(src)}
	for i := range p.win {
		p.win[i] = p.lex.next()
	}
	return p
}

// enter guards recursive descent against stack exhaustion on pathological
// nesting; every call must be paired with leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errorf("nesting deeper than %d levels", maxNestingDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// at returns the current token, valid until the next advance.
func (p *parser) at() *Token { return &p.win[p.cur] }

// kind returns the current token's kind, and peek the kind k tokens ahead
// (k ≤ 2).
func (p *parser) kind() Kind      { return p.win[p.cur].Kind }
func (p *parser) peek(k int) Kind { return p.win[(p.cur+k)%len(p.win)].Kind }

// advance consumes the current token and returns it.  At the end of input
// the current token stays EOF.
func (p *parser) advance() Token {
	t := p.win[p.cur]
	p.win[p.cur] = p.lex.next()
	p.cur = (p.cur + 1) % len(p.win)
	return t
}

func (p *parser) expect(k Kind) (Token, error) {
	if p.kind() != k {
		return Token{}, p.errorf("expected %v, found %v %q", k, p.kind(), p.at().Text)
	}
	return p.advance(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return parseErrorf(p.at().Pos, format, args...)
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.kind() != EOF {
		if p.kind() == KwStruct && p.peek(1) == IDENT && p.peek(2) == LBrace {
			s, err := p.structDecl()
			if err != nil {
				return nil, err
			}
			prog.Structs = append(prog.Structs, s)
			continue
		}
		f, err := p.funcDecl()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog, nil
}

// baseTypeSpec parses "int" | "float" | "double" | "void" | "struct NAME"
// without pointer stars (stars belong to declarators).
func (p *parser) baseTypeSpec() (Type, error) {
	var t Type
	switch p.kind() {
	case KwInt, KwFloat, KwDouble, KwVoid:
		t.Base = p.advance().Text
	case KwStruct:
		p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return t, err
		}
		t.Base = name.Text
		t.IsStruct = true
	default:
		return t, p.errorf("expected a type, found %v %q", p.kind(), p.at().Text)
	}
	return t, nil
}

// typeSpec parses a base type followed by pointer stars (single-declarator
// positions: parameters, return types).
func (p *parser) typeSpec() (Type, error) {
	t, err := p.baseTypeSpec()
	if err != nil {
		return t, err
	}
	t.Ptr = p.stars()
	return t, nil
}

// stars counts and consumes leading '*'.
func (p *parser) stars() int {
	n := 0
	for p.kind() == Star {
		p.advance()
		n++
	}
	return n
}

func (p *parser) structDecl() (*StructDecl, error) {
	pos := p.at().Pos
	if _, err := p.expect(KwStruct); err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	decl := &StructDecl{Name: name.Text, Pos: pos}
	var axiomText string
	for p.kind() != RBrace {
		if p.kind() == KwAxioms {
			text, err := p.rawAxiomBlock()
			if err != nil {
				return nil, err
			}
			axiomText = text
			continue
		}
		base, err := p.baseTypeSpec()
		if err != nil {
			return nil, err
		}
		for {
			ft := base
			ft.Ptr = p.stars()
			fname, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			decl.Fields = append(decl.Fields, FieldDecl{Name: fname.Text, Type: ft, Pos: fname.Pos})
			if p.kind() != Comma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	if p.kind() == Semi {
		p.advance()
	}
	if axiomText != "" {
		fields := decl.PointerFields()
		set, err := axiom.ParseSetWithFields(decl.Name, axiomText, fields)
		if err != nil {
			return nil, parseErrorf(pos, "in axioms of struct %s: %v", decl.Name, err)
		}
		decl.Axioms = set
	}
	return decl, nil
}

// rawAxiomBlock consumes "axioms { RAW }" where the lexer has already
// packaged the block body as a single raw STRING token (the axiom
// sub-language has its own grammar).
func (p *parser) rawAxiomBlock() (string, error) {
	if _, err := p.expect(KwAxioms); err != nil {
		return "", err
	}
	if _, err := p.expect(LBrace); err != nil {
		return "", err
	}
	raw, err := p.expect(STRING)
	if err != nil {
		return "", err
	}
	if _, err := p.expect(RBrace); err != nil {
		return "", err
	}
	return strings.TrimSpace(raw.Text), nil
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	pos := p.at().Pos
	result, err := p.typeSpec()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.Text, Result: result, Pos: pos}
	if p.kind() == KwVoid && p.peek(1) == RParen {
		p.advance()
	}
	for p.kind() != RParen {
		pt, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, Param{Name: pn.Text, Type: pt})
		if p.kind() == Comma {
			p.advance()
		}
	}
	p.advance() // ')'
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*Block, error) {
	open, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: open.Pos}
	for p.kind() != RBrace {
		if p.kind() == EOF {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // '}'
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	// Optional label: IDENT ':' not followed by something that makes it an
	// expression (mini-C has no ternary, so IDENT ':' is always a label).
	label := ""
	if p.kind() == IDENT && p.peek(1) == Colon {
		label = p.advance().Text
		p.advance() // ':'
	}
	pos := p.at().Pos
	base := stmtBase{Lbl: label, Pos: pos}

	switch p.kind() {
	case KwInt, KwFloat, KwDouble, KwStruct:
		bt, err := p.baseTypeSpec()
		if err != nil {
			return nil, err
		}
		d := &DeclStmt{stmtBase: base}
		for {
			t := bt
			t.Ptr = p.stars()
			n, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			d.Items = append(d.Items, DeclItem{Name: n.Text, Type: t})
			if p.kind() != Comma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return d, nil

	case KwWhile:
		p.advance()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: base, Cond: cond, Body: body}, nil

	case KwIf:
		p.advance()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		ifs := &IfStmt{stmtBase: base, Cond: cond, Then: then}
		if p.kind() == KwElse {
			p.advance()
			els, err := p.stmtAsBlock()
			if err != nil {
				return nil, err
			}
			ifs.Else = els
		}
		return ifs, nil

	case KwReturn:
		p.advance()
		r := &ReturnStmt{stmtBase: base}
		if p.kind() != Semi {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return r, nil

	case LBrace:
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{stmtBase: base, Body: body}, nil
	}

	// Assignment or expression statement.
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.kind() == Assign {
		p.advance()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		switch lhs.(type) {
		case *Ident, *FieldAccess, *DerefExpr:
		default:
			return nil, parseErrorf(pos, "assignment target must be a variable, var->field, or *var")
		}
		return &AssignStmt{stmtBase: base, LHS: lhs, RHS: rhs}, nil
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{stmtBase: base, X: lhs}, nil
}

func (p *parser) stmtAsBlock() (*Block, error) {
	if p.kind() == LBrace {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &Block{Stmts: []Stmt{s}, Pos: s.StmtPos()}, nil
}

// expr parses with precedence: || over && over comparisons over +,- over
// *,/ over unary over primary.  Every binary operator is left-associative.
func (p *parser) expr() (Expr, error) { return p.binary(1) }

// binaryPrec returns the binding strength of binary operator k, 0 when k
// is not one.
func binaryPrec(k Kind) int {
	switch k {
	case PipePipe:
		return 1
	case AmpAmp:
		return 2
	case EqEq, NotEq, Lt, Gt, Le, Ge:
		return 3
	case Plus, Minus:
		return 4
	case Star, Slash:
		return 5
	}
	return 0
}

// binary parses a chain of unary operands joined by binary operators that
// bind at least as tightly as minPrec (precedence climbing).
func (p *parser) binary(minPrec int) (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec := binaryPrec(p.kind())
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		op := p.advance()
		right, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Text, L: left, R: right}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.kind() {
	case Bang, Minus:
		op := p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Text, X: x}, nil
	case Amp:
		// Address-of a named variable: the PTDP side of Figure 1.
		op := p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		return &AddrExpr{exprBase: exprBase{Pos: op.Pos}, Name: name.Text}, nil
	case Star:
		// Pointer dereference of a named variable.
		op := p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		return &DerefExpr{exprBase: exprBase{Pos: op.Pos}, Name: name.Text}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	tok := *p.at()
	switch tok.Kind {
	case NUMBER:
		p.advance()
		if tok.Text == "0" {
			// 0 doubles as the null pointer in pointer contexts; the
			// analysis treats NumLit("0") and NullLit alike.
			return &NumLit{exprBase: exprBase{Pos: tok.Pos}, Text: tok.Text}, nil
		}
		return &NumLit{exprBase: exprBase{Pos: tok.Pos}, Text: tok.Text}, nil
	case KwNull:
		p.advance()
		return &NullLit{exprBase: exprBase{Pos: tok.Pos}}, nil
	case KwMalloc:
		p.advance()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		m := &MallocExpr{exprBase: exprBase{Pos: tok.Pos}}
		if p.kind() == KwStruct {
			p.advance()
			n, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			m.Of = n.Text
		} else {
			// Skip an arbitrary size expression.
			depth := 1
			for depth > 0 {
				switch p.kind() {
				case LParen:
					depth++
				case RParen:
					depth--
				case EOF:
					return nil, p.errorf("unterminated malloc arguments")
				}
				if depth > 0 {
					p.advance()
				}
			}
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return m, nil
	case LParen:
		p.advance()
		inner, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return inner, nil
	case IDENT:
		p.advance()
		switch p.kind() {
		case Arrow:
			p.advance()
			f, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.kind() == Arrow {
				return nil, parseErrorf(tok.Pos, "chained dereference %s->%s->...: rewrite with a temporary (one field per statement)", tok.Text, f.Text)
			}
			return &FieldAccess{exprBase: exprBase{Pos: tok.Pos}, Base: tok.Text, Field: f.Text}, nil
		case LParen:
			p.advance()
			call := &CallExpr{exprBase: exprBase{Pos: tok.Pos}, Name: tok.Text}
			for p.kind() != RParen {
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.kind() == Comma {
					p.advance()
				}
			}
			p.advance() // ')'
			return call, nil
		}
		return &Ident{exprBase: exprBase{Pos: tok.Pos}, Name: tok.Text}, nil
	}
	return nil, p.errorf("unexpected %v %q in expression", tok.Kind, tok.Text)
}
