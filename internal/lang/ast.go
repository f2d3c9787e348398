package lang

import (
	"slices"

	"repro/internal/axiom"
)

// Program is a parsed translation unit.
type Program struct {
	Structs []*StructDecl
	Funcs   []*FuncDecl
}

// Struct returns the struct declaration with the given name, or nil.
func (p *Program) Struct(name string) *StructDecl {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Type describes a declared type: a base name ("int", "float", "double", or
// a struct name) plus pointer depth.
type Type struct {
	Base     string
	Ptr      int
	IsStruct bool
}

// IsPointerToStruct reports whether the type is a single-level pointer to a
// struct — the only pointers the analysis tracks as heap references.
func (t Type) IsPointerToStruct() bool { return t.IsStruct && t.Ptr == 1 }

func (t Type) String() string {
	s := t.Base
	if t.IsStruct {
		s = "struct " + s
	}
	for i := 0; i < t.Ptr; i++ {
		s += "*"
	}
	return s
}

// FieldDecl is one field of a struct.
type FieldDecl struct {
	Name string
	Type Type
	Pos  Pos
}

// StructDecl is a struct type with optional aliasing axioms.
type StructDecl struct {
	Name   string
	Fields []FieldDecl
	// Axioms holds the axiom block, if declared; nil otherwise.
	Axioms *axiom.Set
	Pos    Pos
}

// Field returns the named field declaration, or nil.
func (s *StructDecl) Field(name string) *FieldDecl {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// PointerFields returns the names of fields that are pointers to structs —
// the edges of the data structure graph.
func (s *StructDecl) PointerFields() []string {
	var out []string
	for _, f := range s.Fields {
		if f.Type.IsPointerToStruct() {
			out = append(out, f.Name)
		}
	}
	return out
}

// Param is one function parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Result Type
	Params []Param
	Body   *Block
	Pos    Pos
}

// Block is a brace-delimited statement list.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// Stmt is a statement node.
type Stmt interface {
	// Label returns the statement's label ("" if unlabeled).
	Label() string
	StmtPos() Pos
	isStmt()
}

type stmtBase struct {
	Lbl string
	Pos Pos
}

func (s stmtBase) Label() string { return s.Lbl }
func (s stmtBase) StmtPos() Pos  { return s.Pos }
func (stmtBase) isStmt()         {}

// DeclItem is one declarator of a declaration statement: its own name and
// full type (C attaches '*' to declarators, not to the base type).
type DeclItem struct {
	Name string
	Type Type
}

// DeclStmt declares local variables.
type DeclStmt struct {
	stmtBase
	Items []DeclItem
}

// AssignStmt is lhs = rhs.  LHS is an Ident or a FieldAccess.
type AssignStmt struct {
	stmtBase
	LHS Expr
	RHS Expr
}

// ExprStmt is a bare expression (a call) used for effect.
type ExprStmt struct {
	stmtBase
	X Expr
}

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body *Block
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then *Block
	Else *Block // nil when absent
}

// ReturnStmt returns from the function.
type ReturnStmt struct {
	stmtBase
	Value Expr // nil for bare return
}

// BlockStmt wraps a nested block.
type BlockStmt struct {
	stmtBase
	Body *Block
}

// Expr is an expression node.
type Expr interface {
	ExprPos() Pos
	isExpr()
}

type exprBase struct{ Pos Pos }

func (e exprBase) ExprPos() Pos { return e.Pos }
func (exprBase) isExpr()        {}

// Ident is a variable reference.
type Ident struct {
	exprBase
	Name string
}

// FieldAccess is base->field (one level, per the simplified form).
type FieldAccess struct {
	exprBase
	Base  string
	Field string
}

// NumLit is a numeric literal.
type NumLit struct {
	exprBase
	Text string
}

// NullLit is NULL or 0 used as a pointer.
type NullLit struct {
	exprBase
}

// MallocExpr is a heap allocation.
type MallocExpr struct {
	exprBase
	// Of optionally names the struct allocated (from "malloc(struct T)" or
	// assignment context); may be empty.
	Of string
}

// CallExpr is a function call with opaque semantics.
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
}

// BinaryExpr is a binary operation over data values or a comparison.
type BinaryExpr struct {
	exprBase
	Op   string
	L, R Expr
}

// UnaryExpr is !x or -x.
type UnaryExpr struct {
	exprBase
	Op string
	X  Expr
}

// AddrExpr is &x: the address of a named variable (the PTDP side of
// Figure 1; see internal/ptdp).
type AddrExpr struct {
	exprBase
	Name string
}

// DerefExpr is *p: dereference of a pointer to a named memory location.
type DerefExpr struct {
	exprBase
	Name string
}

// WalkStmts calls fn on every statement of the block, recursing into nested
// blocks, loop bodies, and both branches of conditionals.
func WalkStmts(b *Block, fn func(Stmt)) {
	if b == nil {
		return
	}
	for _, st := range b.Stmts {
		fn(st)
		switch v := st.(type) {
		case *WhileStmt:
			WalkStmts(v.Body, fn)
		case *IfStmt:
			WalkStmts(v.Then, fn)
			WalkStmts(v.Else, fn)
		case *BlockStmt:
			WalkStmts(v.Body, fn)
		}
	}
}

// WalkExprs calls fn on e and all sub-expressions.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *BinaryExpr:
		WalkExprs(v.L, fn)
		WalkExprs(v.R, fn)
	case *UnaryExpr:
		WalkExprs(v.X, fn)
	case *CallExpr:
		for _, a := range v.Args {
			WalkExprs(a, fn)
		}
	}
}

// StmtExprs calls fn on every expression st carries itself — operands,
// conditions, return values, and all their sub-expressions — but not on the
// statements of nested blocks, which WalkStmts visits on their own.
func StmtExprs(st Stmt, fn func(Expr)) {
	switch v := st.(type) {
	case *AssignStmt:
		WalkExprs(v.LHS, fn)
		WalkExprs(v.RHS, fn)
	case *ExprStmt:
		WalkExprs(v.X, fn)
	case *IfStmt:
		WalkExprs(v.Cond, fn)
	case *WhileStmt:
		WalkExprs(v.Cond, fn)
	case *ReturnStmt:
		WalkExprs(v.Value, fn)
	}
}

// AddrTaken returns the variables whose address (&x) is taken anywhere in
// b: they can change through an alias without an assignment naming them.
func AddrTaken(b *Block) map[string]bool {
	taken := make(map[string]bool)
	WalkStmts(b, func(st Stmt) {
		StmtExprs(st, func(e Expr) {
			if ad, ok := e.(*AddrExpr); ok {
				taken[ad.Name] = true
			}
		})
	})
	return taken
}

// Writes is what a loop can change, read off its syntax alone.
type Writes struct {
	// Vars are the variables assigned by name; Fields the struct fields
	// stored to through any base.
	Vars, Fields map[string]bool
	// Calls names every function called, once each, in first-call order.
	Calls []string
	// Deref reports a store through a pointer (*x = …).
	Deref bool
}

// LoopWrites scans a loop — its condition, which runs before every
// iteration, and its body, nested statements included — for everything one
// iteration may write.
func LoopWrites(loop *WhileStmt) Writes {
	w := Writes{Vars: make(map[string]bool), Fields: make(map[string]bool)}
	noteCall := func(e Expr) {
		if call, ok := e.(*CallExpr); ok && !slices.Contains(w.Calls, call.Name) {
			w.Calls = append(w.Calls, call.Name)
		}
	}
	WalkExprs(loop.Cond, noteCall)
	WalkStmts(loop.Body, func(st Stmt) {
		if as, ok := st.(*AssignStmt); ok {
			switch lhs := as.LHS.(type) {
			case *Ident:
				w.Vars[lhs.Name] = true
			case *FieldAccess:
				w.Fields[lhs.Field] = true
			case *DerefExpr:
				w.Deref = true
			}
		}
		StmtExprs(st, noteCall)
	})
	return w
}

// ConstTrue reports whether a loop condition is a non-zero literal, as in
// while (1): control never leaves the loop through its condition.
func ConstTrue(e Expr) bool {
	n, ok := e.(*NumLit)
	return ok && n.Text != "0"
}
