package lint

import (
	"repro/internal/lang"
)

// langHygiene reports frontend-level problems the parser deliberately lets
// through: references to undeclared struct types and fields, stores that no
// later statement can observe, and statements no execution can reach.
type langHygiene struct{}

// LangHygiene returns the language-hygiene pass.
func LangHygiene() Pass { return langHygiene{} }

func (langHygiene) Name() string { return "lang-hygiene" }
func (langHygiene) Doc() string {
	return "undeclared structs/fields, dead stores, unreachable statements"
}

func (langHygiene) Run(ctx *Context) error {
	checkStructRefs(ctx)
	for _, fn := range ctx.Prog.Funcs {
		if ctx.SkipFunc(fn.Name) {
			continue
		}
		h := &hygiene{ctx: ctx, fn: fn, types: map[string]lang.Type{}}
		for _, p := range fn.Params {
			h.types[p.Name] = p.Type
		}
		h.block(fn.Body)
		h.deadStores()
	}
	return nil
}

// checkStructRefs verifies every struct type mentioned in a declaration is
// itself declared.
func checkStructRefs(ctx *Context) {
	check := func(t lang.Type, pos lang.Pos, what string) {
		if t.IsStruct && ctx.Prog.Struct(t.Base) == nil {
			ctx.Reportf(pos, Error, "%s has undeclared type struct %s", what, t.Base)
		}
	}
	for _, s := range ctx.Prog.Structs {
		if ctx.SkipStruct(s.Name) {
			continue
		}
		for _, f := range s.Fields {
			check(f.Type, f.Pos, "field "+s.Name+"."+f.Name)
		}
	}
	for _, fn := range ctx.Prog.Funcs {
		if ctx.SkipFunc(fn.Name) {
			continue
		}
		for _, p := range fn.Params {
			check(p.Type, fn.Pos, "parameter "+p.Name+" of "+fn.Name)
		}
		lang.WalkStmts(fn.Body, func(st lang.Stmt) {
			if d, ok := st.(*lang.DeclStmt); ok {
				for _, it := range d.Items {
					check(it.Type, d.StmtPos(), "variable "+it.Name)
				}
			}
		})
	}
}

// varEvent is one read of or store to a local variable, in source order.
type varEvent struct {
	pos     lang.Pos
	isStore bool
	// loops identifies the while-loops enclosing the event, outermost first
	// (loop back-edges make later-in-source reads reachable from earlier
	// stores within the same loop).
	loops []*lang.WhileStmt
}

type hygiene struct {
	ctx   *Context
	fn    *lang.FuncDecl
	types map[string]lang.Type
	// events collects per-variable reads and stores for dead-store analysis.
	events map[string][]varEvent
	// escaped vars had their address taken; their stores are never dead.
	escaped map[string]bool
	loops   []*lang.WhileStmt
}

// block walks a block, reporting the first statement of each dead region,
// and reports whether its last reachable statement terminates control flow.
func (h *hygiene) block(b *lang.Block) bool {
	if b == nil {
		return false
	}
	terminated := false
	for _, st := range b.Stmts {
		if terminated {
			h.ctx.Reportf(st.StmtPos(), Warning, "unreachable statement")
		}
		terminated = h.stmt(st)
	}
	return terminated
}

// stmt checks one statement and reports whether control cannot flow past it.
func (h *hygiene) stmt(st lang.Stmt) (terminates bool) {
	switch s := st.(type) {
	case *lang.DeclStmt:
		for _, it := range s.Items {
			h.types[it.Name] = it.Type
		}
	case *lang.AssignStmt:
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			h.record(lhs.Name, lhs.Pos, true)
		case *lang.FieldAccess:
			h.fieldAccess(lhs)
			h.record(lhs.Base, lhs.Pos, false)
		case *lang.DerefExpr:
			h.record(lhs.Name, lhs.ExprPos(), false)
		}
		h.expr(s.RHS)
	case *lang.ExprStmt:
		h.expr(s.X)
	case *lang.WhileStmt:
		h.expr(s.Cond)
		h.loops = append(h.loops, s)
		h.block(s.Body)
		h.loops = h.loops[:len(h.loops)-1]
		return lang.ConstTrue(s.Cond)
	case *lang.IfStmt:
		h.expr(s.Cond)
		thenEnds := h.block(s.Then)
		elseEnds := s.Else != nil && h.block(s.Else)
		return thenEnds && elseEnds
	case *lang.ReturnStmt:
		h.expr(s.Value)
		return true
	case *lang.BlockStmt:
		h.block(s.Body)
	}
	return false
}

func (h *hygiene) expr(e lang.Expr) {
	lang.WalkExprs(e, func(x lang.Expr) {
		switch v := x.(type) {
		case *lang.Ident:
			h.record(v.Name, v.Pos, false)
		case *lang.FieldAccess:
			h.fieldAccess(v)
			h.record(v.Base, v.Pos, false)
		case *lang.AddrExpr:
			if h.escaped == nil {
				h.escaped = map[string]bool{}
			}
			h.escaped[v.Name] = true
		case *lang.DerefExpr:
			h.record(v.Name, v.ExprPos(), false)
		}
	})
}

// fieldAccess checks base->field against the base variable's declared type.
func (h *hygiene) fieldAccess(fa *lang.FieldAccess) {
	t, ok := h.types[fa.Base]
	if !ok || !t.IsStruct {
		return
	}
	sd := h.ctx.Prog.Struct(t.Base)
	if sd == nil {
		return // undeclared struct already reported at the declaration
	}
	if sd.Field(fa.Field) == nil {
		h.ctx.Reportf(fa.Pos, Error, "struct %s has no field %s", sd.Name, fa.Field)
	}
}

func (h *hygiene) record(name string, pos lang.Pos, isStore bool) {
	if h.events == nil {
		h.events = map[string][]varEvent{}
	}
	loops := append([]*lang.WhileStmt(nil), h.loops...)
	h.events[name] = append(h.events[name], varEvent{pos: pos, isStore: isStore, loops: loops})
}

// deadStores flags stores no later read can observe.  A store inside a loop
// also feeds reads anywhere in that loop via the back-edge, so only reads
// outside every shared loop must strictly follow it.
func (h *hygiene) deadStores() {
	for name, evs := range h.events {
		if h.escaped[name] {
			continue
		}
		for i, ev := range evs {
			if !ev.isStore {
				continue
			}
			live := false
			for j, other := range evs {
				if j == i || other.isStore {
					continue
				}
				if posLess(ev.pos, other.pos) || sharesLoop(ev.loops, other.loops) {
					live = true
					break
				}
			}
			if !live {
				h.ctx.Reportf(ev.pos, Warning,
					"dead store: value assigned to %s is never read", name)
			}
		}
	}
}

func posLess(a, b lang.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// sharesLoop reports whether the two events sit inside a common while-loop.
func sharesLoop(a, b []*lang.WhileStmt) bool {
	for _, la := range a {
		for _, lb := range b {
			if la == lb {
				return true
			}
		}
	}
	return false
}
