// Package lang implements the frontend for the mini-C language the paper's
// examples are written in: struct declarations annotated with aliasing
// axioms (in the spirit of the ADDS description language [HHN92] the paper
// cites in §3.2), and a structured statement language rich enough for the
// code fragments of Figures 1 and 3 and the sparse-matrix kernels of §5.
//
// The frontend is deliberately one-field-per-dereference: expressions like
// a->f->g must be written with an explicit temporary, which is the
// simplified intermediate form the paper assumes its dependence test
// receives [HDE+93].
package lang

import "fmt"

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	NUMBER
	STRING

	// Keywords.
	KwStruct
	KwAxioms
	KwWhile
	KwIf
	KwElse
	KwReturn
	KwInt
	KwFloat
	KwDouble
	KwVoid
	KwMalloc
	KwNull

	// Punctuation and operators.
	LBrace   // {
	RBrace   // }
	LParen   // (
	RParen   // )
	Semi     // ;
	Comma    // ,
	Star     // *
	Assign   // =
	Arrow    // ->
	Colon    // :
	Lt       // <
	Gt       // >
	Le       // <=
	Ge       // >=
	EqEq     // ==
	NotEq    // !=
	Plus     // +
	Minus    // -
	Slash    // /
	Bang     // !
	AmpAmp   // &&
	PipePipe // ||
	Amp      // & (address-of)
)

var kindNames = map[Kind]string{
	EOF: "end of file", IDENT: "identifier", NUMBER: "number", STRING: "string",
	KwStruct: "'struct'", KwAxioms: "'axioms'", KwWhile: "'while'", KwIf: "'if'",
	KwElse: "'else'", KwReturn: "'return'", KwInt: "'int'", KwFloat: "'float'",
	KwDouble: "'double'", KwVoid: "'void'", KwMalloc: "'malloc'", KwNull: "'NULL'",
	LBrace: "'{'", RBrace: "'}'", LParen: "'('", RParen: "')'", Semi: "';'",
	Comma: "','", Star: "'*'", Assign: "'='", Arrow: "'->'", Colon: "':'",
	Lt: "'<'", Gt: "'>'", Le: "'<='", Ge: "'>='", EqEq: "'=='", NotEq: "'!='",
	Plus: "'+'", Minus: "'-'", Slash: "'/'", Bang: "'!'", AmpAmp: "'&&'",
	PipePipe: "'||'", Amp: "'&'",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

var keywords = map[string]Kind{
	"struct": KwStruct,
	"axioms": KwAxioms,
	"while":  KwWhile,
	"if":     KwIf,
	"else":   KwElse,
	"return": KwReturn,
	"int":    KwInt,
	"float":  KwFloat,
	"double": KwDouble,
	"void":   KwVoid,
	"malloc": KwMalloc,
	"NULL":   KwNull,
}
